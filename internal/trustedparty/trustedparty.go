// Package trustedparty implements the one-time setup step of §3.4.
//
// DStress assumes a trusted party (TP) — e.g. the Federal Reserve in the
// banking scenario — that knows the identities of all nodes, assigns each
// node a block of k+1 members, and equips every node with D block
// certificates. The TP can be offline afterwards and never learns the graph
// topology or any private data.
//
// Setup protocol:
//
//  1. Each node i sends the TP its L ElGamal public keys (one per message
//     bit, enabling the Kurosawa shared-ephemeral optimization of §5.1) and
//     D secret "neighbor keys" n_1…n_D drawn from Z_q.
//  2. The TP randomly assigns each node a block B_i of k+1 distinct nodes
//     including i (preventing Sybil-stuffed blocks), plus a special
//     aggregation block B_A, and publishes the signed assignment. The
//     assignment reveals nothing about edges.
//  3. For each node i and each slot j ≤ D, the TP builds a block
//     certificate containing the public keys of B_i's members re-randomized
//     with n_j (h ↦ h^{n_j}) and signs it. Node i forwards its j-th
//     certificate to its j-th neighbor (discarding leftovers if it has
//     fewer than D neighbors, so neighbors cannot be counted); the neighbor
//     hands it to the members of its own block, identified only as "the
//     certificate for my j-th neighbor".
//
// During a transfer over edge (u → v), the members of B_u encrypt under the
// re-randomized keys from v's certificate, and v later adjusts the
// ciphertexts with the matching neighbor key (§3.5), so B_u's members never
// see a key they could link to a node identity.
package trustedparty

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/big"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"dstress/internal/elgamal"
	"dstress/internal/group"
	"dstress/internal/network"
)

// Params are the public system parameters fixed before setup.
type Params struct {
	Group group.Group
	K     int // collusion bound; blocks have K+1 members
	D     int // public degree bound
	L     int // message bit-length (keys per node)
	// Recoverable asks Setup to prefer an assignment in which every
	// possible single node death leaves at least one viable replacement
	// (see ReplacementOK). The draw stays uniform over such assignments;
	// when the fleet is too small for the property to hold (or the redraw
	// budget runs out) Setup falls back to an unconstrained draw and a
	// later death may still hit ErrNoReplacement.
	Recoverable bool
}

// Validate checks the parameter ranges.
func (p Params) Validate() error {
	if p.Group == nil {
		return fmt.Errorf("trustedparty: nil group")
	}
	if p.K < 1 {
		return fmt.Errorf("trustedparty: collusion bound k must be ≥ 1, got %d", p.K)
	}
	if p.D < 1 {
		return fmt.Errorf("trustedparty: degree bound D must be ≥ 1, got %d", p.D)
	}
	if p.L < 1 || p.L > 64 {
		return fmt.Errorf("trustedparty: message length L must be in [1,64], got %d", p.L)
	}
	return nil
}

// NodeRegistration is what a node submits to the TP: its public keys and
// its D neighbor keys. Neighbor keys are scalars the node chooses; the TP
// uses them for re-randomization and the node later uses them for
// ciphertext adjustment.
type NodeRegistration struct {
	ID           network.NodeID
	PublicKeys   []elgamal.PublicKey // L keys, one per bit position
	NeighborKeys []*big.Int          // D scalars
}

// NodeSecrets is the node-local private state generated alongside a
// registration.
type NodeSecrets struct {
	PrivateKeys  []*elgamal.PrivateKey // L keys
	NeighborKeys []*big.Int            // D scalars (shared with TP only)
}

// RegisterNode draws fresh keys for a node and returns the registration to
// send to the TP plus the secrets to keep.
func RegisterNode(p Params, id network.NodeID) (NodeRegistration, NodeSecrets, error) {
	if err := p.Validate(); err != nil {
		return NodeRegistration{}, NodeSecrets{}, err
	}
	reg := NodeRegistration{ID: id}
	sec := NodeSecrets{}
	for b := 0; b < p.L; b++ {
		sk, err := elgamal.GenerateKey(p.Group)
		if err != nil {
			return NodeRegistration{}, NodeSecrets{}, fmt.Errorf("trustedparty: keygen: %w", err)
		}
		sec.PrivateKeys = append(sec.PrivateKeys, sk)
		reg.PublicKeys = append(reg.PublicKeys, sk.PublicKey)
	}
	for j := 0; j < p.D; j++ {
		nk := group.MustRandomScalar(p.Group)
		reg.NeighborKeys = append(reg.NeighborKeys, nk)
		sec.NeighborKeys = append(sec.NeighborKeys, nk)
	}
	return reg, sec, nil
}

// BlockCert is one signed block certificate: the re-randomized public keys
// of a block's members. Keys[m][b] is member m's key for bit b, in the
// block's canonical member order.
type BlockCert struct {
	Keys [][]elgamal.PublicKey
	Sig  []byte
}

// Assignment is the TP's published, signed output.
type Assignment struct {
	// Blocks[i] lists the members of node i's block (always contains i).
	Blocks map[network.NodeID][]network.NodeID
	// AggBlock is the special aggregation block B_A (§3.6).
	AggBlock []network.NodeID
	// Sig signs the canonical serialization of the assignment.
	Sig []byte
}

// SetupResult bundles everything the TP produces.
type SetupResult struct {
	Assignment Assignment
	// Certs[i] holds node i's D block certificates: certificate j carries
	// B_i's keys re-randomized with i's j-th neighbor key.
	Certs map[network.NodeID][]BlockCert
	// VerifyKey is the TP's ECDSA public key for signature checks.
	VerifyKey *ecdsa.PublicKey
}

// TrustedParty holds the TP's signing key.
type TrustedParty struct {
	params Params
	sk     *ecdsa.PrivateKey
}

// New creates a TP with a fresh ECDSA P-256 signing key.
func New(p Params) (*TrustedParty, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	sk, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("trustedparty: signing keygen: %w", err)
	}
	return &TrustedParty{params: p, sk: sk}, nil
}

// Setup performs the one-time setup over the given registrations. The
// registrations must all carry distinct IDs and consistent key counts.
func (tp *TrustedParty) Setup(regs []NodeRegistration) (*SetupResult, error) {
	p := tp.params
	n := len(regs)
	if n < p.K+1 {
		return nil, fmt.Errorf("trustedparty: need at least k+1 = %d nodes, got %d", p.K+1, n)
	}
	byID := make(map[network.NodeID]NodeRegistration, n)
	ids := make([]network.NodeID, 0, n)
	for _, r := range regs {
		if _, dup := byID[r.ID]; dup {
			return nil, fmt.Errorf("trustedparty: duplicate registration for node %d", r.ID)
		}
		if len(r.PublicKeys) != p.L {
			return nil, fmt.Errorf("trustedparty: node %d registered %d keys, want %d", r.ID, len(r.PublicKeys), p.L)
		}
		if len(r.NeighborKeys) != p.D {
			return nil, fmt.Errorf("trustedparty: node %d registered %d neighbor keys, want %d", r.ID, len(r.NeighborKeys), p.D)
		}
		byID[r.ID] = r
		ids = append(ids, r.ID)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })

	// Random block assignment: each block contains its owner plus k random
	// distinct other nodes. Randomness comes from crypto/rand — nodes
	// cannot stuff their own blocks (§3.4).
	result := &SetupResult{
		Assignment: Assignment{Blocks: make(map[network.NodeID][]network.NodeID, n)},
		Certs:      make(map[network.NodeID][]BlockCert, n),
		VerifyKey:  &tp.sk.PublicKey,
	}
	// Certificates are the expensive part of setup, so when a recoverable
	// assignment is requested only the (cheap) draw is retried.
	for attempt := 1; ; attempt++ {
		blocks := make(map[network.NodeID][]network.NodeID, n)
		for _, id := range ids {
			members, err := sampleBlock(ids, id, p.K+1)
			if err != nil {
				return nil, err
			}
			blocks[id] = members
		}
		agg, err := sampleBlock(ids, ids[0], p.K+1)
		if err != nil {
			return nil, err
		}
		result.Assignment.Blocks = blocks
		result.Assignment.AggBlock = agg
		if !p.Recoverable || attempt >= recoverableDrawAttempts ||
			EveryDeathRecoverable(result.Assignment, ids) {
			break
		}
	}
	var err error
	result.Assignment.Sig, err = tp.sign(assignmentDigest(result.Assignment))
	if err != nil {
		return nil, err
	}

	// Block certificates: for node i, certificate j re-randomizes every key
	// of every member of B_i with i's j-th neighbor key.
	if result.Certs, err = tp.issueCerts(byID, result.Assignment.Blocks, ids); err != nil {
		return nil, err
	}
	return result, nil
}

// issueCerts builds and signs the D block certificates of every owner in
// owners: certificate j of owner i carries the registered keys of B_i's
// members (blocks[i]) re-randomized with i's j-th neighbor key. The
// N·D certificates are independent, so they are spread over GOMAXPROCS
// workers; the first error wins, and every worker has exited on return.
func (tp *TrustedParty) issueCerts(byID map[network.NodeID]NodeRegistration, blocks map[network.NodeID][]network.NodeID, owners []network.NodeID) (map[network.NodeID][]BlockCert, error) {
	p := tp.params
	certs := make(map[network.NodeID][]BlockCert, len(owners))
	for _, id := range owners {
		certs[id] = make([]BlockCert, p.D)
	}
	total := len(owners) * p.D
	workers := runtime.GOMAXPROCS(0)
	if workers > total {
		workers = total
	}
	var (
		next     atomic.Int64
		failOnce sync.Once
		failed   atomic.Bool
		firstErr error
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				c := int(next.Add(1) - 1)
				if c >= total {
					return
				}
				id, j := owners[c/p.D], c%p.D
				cert, err := tp.issueCert(byID, blocks[id], byID[id].NeighborKeys[j])
				if err != nil {
					failOnce.Do(func() { firstErr = err })
					failed.Store(true)
					return
				}
				certs[id][j] = cert
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return certs, nil
}

// issueCert builds and signs one block certificate: every key of every
// member re-randomized with the neighbor key nk.
func (tp *TrustedParty) issueCert(byID map[network.NodeID]NodeRegistration, members []network.NodeID, nk *big.Int) (BlockCert, error) {
	p := tp.params
	keys := make([][]elgamal.PublicKey, len(members))
	for m, member := range members {
		mreg, ok := byID[member]
		if !ok {
			return BlockCert{}, fmt.Errorf("trustedparty: member %d not registered", member)
		}
		keys[m] = make([]elgamal.PublicKey, p.L)
		for b := 0; b < p.L; b++ {
			keys[m][b] = mreg.PublicKeys[b].Randomize(nk)
		}
	}
	sig, err := tp.sign(certDigest(p.Group, keys))
	if err != nil {
		return BlockCert{}, err
	}
	return BlockCert{Keys: keys, Sig: sig}, nil
}

// ErrNoReplacement reports a death the recovery protocol cannot survive:
// every surviving node already shares a block with the casualty, so any
// stand-in would hold two of one block's k+1 shares and the collusion
// bound would drop below k. The random assignment makes this unlikely but
// possible (more so on tiny fleets); the query falls back to the fail-stop
// abort and callers retry on a fresh deployment.
var ErrNoReplacement = errors.New("trustedparty: no surviving node can replace the dead one (all share a block with it)")

// recoverableDrawAttempts bounds the assignment redraws a Recoverable
// setup performs before settling for an unconstrained draw. On fleets
// where the property is achievable at all a handful of draws suffice; the
// bound exists for tiny fleets (e.g. n = 3, k = 1) where no assignment
// can make every death survivable.
const recoverableDrawAttempts = 64

// EveryDeathRecoverable reports whether the assignment survives any
// single node death: for every node some other node shares no block with
// it and could stand in (see ReplacementOK). The aggregation block counts
// toward co-membership.
func EveryDeathRecoverable(a Assignment, ids []network.NodeID) bool {
	for _, dead := range ids {
		if _, err := PickReplacement(a, dead, ids); err != nil {
			return false
		}
	}
	return true
}

// PickReplacement chooses the node that stands in for dead: the first of
// candidates (callers pass live ids in ascending order, so the lowest wins
// and every party derives the same choice) that shares no block with it —
// a co-member would end up holding two shares of one secret. With no such
// node the error wraps ErrNoReplacement.
func PickReplacement(a Assignment, dead network.NodeID, candidates []network.NodeID) (network.NodeID, error) {
	for _, id := range candidates {
		if ReplacementOK(a, dead, id) {
			return id, nil
		}
	}
	return 0, fmt.Errorf("replacing node %d: %w", dead, ErrNoReplacement)
}

// ReplacementOK reports whether repl can stand in for dead under the given
// assignment: repl must be a different node and must not already be a
// member of any block that contains dead (a block cannot list the same
// node twice). The aggregation block counts too.
func ReplacementOK(a Assignment, dead, repl network.NodeID) bool {
	if dead == repl {
		return false
	}
	contains := func(members []network.NodeID, id network.NodeID) bool {
		for _, m := range members {
			if m == id {
				return true
			}
		}
		return false
	}
	for _, members := range a.Blocks {
		if contains(members, dead) && contains(members, repl) {
			return false
		}
	}
	if contains(a.AggBlock, dead) && contains(a.AggBlock, repl) {
		return false
	}
	return true
}

// Reblock produces a new setup in which repl takes over every block slot
// held by dead, including ownership of dead's own block (repl becomes its
// first member and thus the acting owner of dead's vertex). The assignment
// is re-signed, and certificates are re-issued only for blocks whose
// membership changed — re-randomized with the block owner's registered
// neighbor keys, exactly as in Setup, so survivors' verification logic is
// unchanged. regs must include registrations for every node whose
// certificates are re-issued (in particular dead's own, since its block's
// certificates are re-randomized with dead's neighbor keys, which the TP
// retains from registration).
func (tp *TrustedParty) Reblock(prev *SetupResult, regs []NodeRegistration, dead, repl network.NodeID) (*SetupResult, error) {
	if !ReplacementOK(prev.Assignment, dead, repl) {
		return nil, fmt.Errorf("trustedparty: node %d cannot replace node %d (already a co-member)", repl, dead)
	}
	byID := make(map[network.NodeID]NodeRegistration, len(regs))
	for _, r := range regs {
		byID[r.ID] = r
	}
	if _, ok := byID[repl]; !ok {
		return nil, fmt.Errorf("trustedparty: replacement node %d is not registered", repl)
	}

	substitute := func(members []network.NodeID) ([]network.NodeID, bool) {
		changed := false
		out := make([]network.NodeID, len(members))
		for i, m := range members {
			if m == dead {
				out[i] = repl
				changed = true
			} else {
				out[i] = m
			}
		}
		if changed && len(out) > 1 {
			// Restore canonical order: owner (slot 0) stays, rest sorted.
			rest := out[1:]
			sort.Slice(rest, func(a, b int) bool { return rest[a] < rest[b] })
		}
		return out, changed
	}

	next := &SetupResult{
		Assignment: Assignment{Blocks: make(map[network.NodeID][]network.NodeID, len(prev.Assignment.Blocks))},
		Certs:      make(map[network.NodeID][]BlockCert, len(prev.Certs)),
		VerifyKey:  &tp.sk.PublicKey,
	}
	changedBlocks := make(map[network.NodeID]bool)
	for id, members := range prev.Assignment.Blocks {
		sub, changed := substitute(members)
		next.Assignment.Blocks[id] = sub
		if changed {
			changedBlocks[id] = true
		}
	}
	next.Assignment.AggBlock, _ = substitute(prev.Assignment.AggBlock)
	var err error
	next.Assignment.Sig, err = tp.sign(assignmentDigest(next.Assignment))
	if err != nil {
		return nil, err
	}

	// Re-issue: same construction as Setup, with the new membership. The
	// block key (and hence the neighbor keys used for re-randomization)
	// stays the original owner's — for dead's own block that means dead's
	// registered neighbor keys, which repl receives during recovery so it
	// can adjust incoming transfers for the adopted vertex.
	var reissue []network.NodeID
	for id, certs := range prev.Certs {
		if !changedBlocks[id] {
			next.Certs[id] = certs
			continue
		}
		if _, ok := byID[id]; !ok {
			return nil, fmt.Errorf("trustedparty: no registration retained for node %d, cannot re-issue certificates", id)
		}
		reissue = append(reissue, id)
	}
	fresh, err := tp.issueCerts(byID, next.Assignment.Blocks, reissue)
	if err != nil {
		return nil, err
	}
	for id, certs := range fresh {
		next.Certs[id] = certs
	}
	return next, nil
}

// sampleBlock picks size distinct members including owner, uniformly from
// ids.
func sampleBlock(ids []network.NodeID, owner network.NodeID, size int) ([]network.NodeID, error) {
	if size > len(ids) {
		return nil, fmt.Errorf("trustedparty: block size %d exceeds population %d", size, len(ids))
	}
	chosen := map[network.NodeID]bool{owner: true}
	members := []network.NodeID{owner}
	for len(members) < size {
		idx, err := rand.Int(rand.Reader, big.NewInt(int64(len(ids))))
		if err != nil {
			return nil, fmt.Errorf("trustedparty: sampling block: %w", err)
		}
		cand := ids[idx.Int64()]
		if !chosen[cand] {
			chosen[cand] = true
			members = append(members, cand)
		}
	}
	// Canonical order (owner first, rest sorted) so every party derives the
	// same member indices.
	rest := members[1:]
	sort.Slice(rest, func(a, b int) bool { return rest[a] < rest[b] })
	return members, nil
}

func (tp *TrustedParty) sign(digest []byte) ([]byte, error) {
	return ecdsa.SignASN1(rand.Reader, tp.sk, digest)
}

// VerifyAssignment checks the TP's signature over a published assignment.
func VerifyAssignment(vk *ecdsa.PublicKey, a Assignment) bool {
	return ecdsa.VerifyASN1(vk, assignmentDigest(a), a.Sig)
}

// VerifyCert checks the TP's signature over a block certificate.
func VerifyCert(vk *ecdsa.PublicKey, g group.Group, c BlockCert) bool {
	return ecdsa.VerifyASN1(vk, certDigest(g, c.Keys), c.Sig)
}

// CheckCertMatches lets node i audit its own certificates: certificate j
// must contain exactly the block members' registered keys raised to i's
// j-th neighbor key.
func CheckCertMatches(g group.Group, cert BlockCert, memberKeys [][]elgamal.PublicKey, neighborKey *big.Int) bool {
	if len(cert.Keys) != len(memberKeys) {
		return false
	}
	for m := range cert.Keys {
		if len(cert.Keys[m]) != len(memberKeys[m]) {
			return false
		}
		for b := range cert.Keys[m] {
			want := memberKeys[m][b].Randomize(neighborKey)
			if !g.Equal(cert.Keys[m][b].H, want.H) {
				return false
			}
		}
	}
	return true
}

func assignmentDigest(a Assignment) []byte {
	h := sha256.New()
	ids := make([]network.NodeID, 0, len(a.Blocks))
	for id := range a.Blocks {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(x, y int) bool { return ids[x] < ids[y] })
	for _, id := range ids {
		writeID(h, id)
		for _, m := range a.Blocks[id] {
			writeID(h, m)
		}
	}
	h.Write([]byte{0xff})
	for _, m := range a.AggBlock {
		writeID(h, m)
	}
	return h.Sum(nil)
}

func certDigest(g group.Group, keys [][]elgamal.PublicKey) []byte {
	h := sha256.New()
	for _, member := range keys {
		for _, pk := range member {
			h.Write(g.Encode(pk.H))
		}
	}
	return h.Sum(nil)
}

func writeID(h interface{ Write([]byte) (int, error) }, id network.NodeID) {
	h.Write([]byte{byte(id), byte(id >> 8), byte(id >> 16), byte(id >> 24)})
}
