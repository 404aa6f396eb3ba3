package vertex

import (
	"context"
	"fmt"
	"log/slog"
	"math/big"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dstress/internal/circuit"
	"dstress/internal/dp"
	"dstress/internal/elgamal"
	"dstress/internal/gmw"
	"dstress/internal/group"
	"dstress/internal/network"
	"dstress/internal/obs"
	"dstress/internal/secretshare"
	"dstress/internal/transfer"
	"dstress/internal/trustedparty"
)

// ---------------------------------------------------------------------------
// The protocol engine
//
// DStress is one protocol — §3.4 setup, §3.6 initialization, per-iteration
// block GMW plus §3.5 edge transfers, aggregation — and this file is its one
// implementation: an Engine plays the roles of exactly one participant
// (block member, relay, adjuster, aggregation member) against a
// network.Transport. One driver runs it: a node of internal/cluster wraps
// one engine in the control plane, whether the node is a daemon on tcpnet
// or a goroutine of an in-process fleet on the hub.
// ---------------------------------------------------------------------------

// Config parameterizes a deployment.
type Config struct {
	// Group is the cyclic group for ElGamal and base OTs.
	Group group.Group
	// K is the collusion bound; blocks have K+1 members (§3.2).
	K int
	// Alpha is the transfer-noise parameter (§3.5); 0 disables edge noising.
	Alpha float64
	// AggFanIn enables hierarchical aggregation (§3.6): when positive and
	// smaller than N, vertices are grouped into subtrees of at most
	// AggFanIn states, each partially aggregated by an existing block,
	// and a root block combines the partials and adds the noise. 0 keeps
	// the single aggregation block. The paper suggests a fan-in of 100.
	AggFanIn int
	// Recover enables phase-barrier checkpointing: at every barrier each
	// node archives its share state and ships it sealed under the fleet
	// recovery key. Off by default — a failed run then surfaces as an
	// error, matching the fail-stop behavior tests pin.
	Recover bool
}

// tablePFail is the per-decryption failure budget the ElGamal lookup table
// is sized for (Appendix B).
const tablePFail = 1e-12

// Deployment is what every engine of one deployment holds in common and
// never changes per query: the compiled update circuit, the ε-keyed
// aggregation plans, the ElGamal lookup table, the transfer parameters and
// the certificate-key cache. The engines of an in-process fleet share one
// by pointer, so their setup cost and memory do not multiply by N; a node
// daemon holds its own.
type Deployment struct {
	cfg   Config
	prog  *Program
	graph *Graph // topology only: owner inputs arrive with each Job

	updCirc *circuit.Circuit
	table   *elgamal.Table
	tparam  transfer.Params
	certs   *transfer.CertKeyCache

	// certUses accumulates expected certificate-key uses across queries so
	// a standing deployment eventually amortizes the fixed-base tables even
	// when each individual query is short.
	certMu   sync.Mutex
	certUses int

	// plans caches the ε-dependent aggregation machinery: a standing
	// deployment answers queries at different privacy budgets.
	planMu sync.Mutex
	plans  map[float64]*aggPlan
}

// NewDeployment validates the program, graph and parameters and builds the
// shared per-deployment state. Of cfg it reads Group, K, Alpha, AggFanIn
// and Recover.
func NewDeployment(cfg Config, prog *Program, g *Graph) (*Deployment, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	if err := g.Finalize(); err != nil {
		return nil, err
	}
	if cfg.Group == nil {
		return nil, fmt.Errorf("vertex: config needs a group")
	}
	if g.N() < cfg.K+1 {
		return nil, fmt.Errorf("vertex: need at least K+1 = %d vertices, got %d", cfg.K+1, g.N())
	}
	d := &Deployment{
		cfg: cfg, prog: prog, graph: g,
		certs: transfer.NewCertKeyCache(),
		plans: make(map[float64]*aggPlan),
	}
	var err error
	if d.updCirc, err = prog.UpdateCircuit(g.D); err != nil {
		return nil, err
	}
	if d.tparam, err = cfg.TransferParams(prog.MsgBits); err != nil {
		return nil, err
	}
	d.table = d.tparam.MakeTable(tablePFail)
	return d, nil
}

// TransferParams returns the checked §3.5 transfer parameters for
// msgBits-bit messages under c, lookup-table size included; it builds
// nothing, so a coordinator can refuse what its nodes would.
func (c Config) TransferParams(msgBits int) (transfer.Params, error) {
	p := transfer.Params{Group: c.Group, K: c.K, L: msgBits, Alpha: c.Alpha}
	if err := p.Validate(); err != nil {
		return p, err
	}
	return p, p.CheckTable(tablePFail)
}

// ExpectCertUses announces n more encryptions under each certificate key
// and turns the fixed-base tables on once the running total amortizes
// their build cost. Whoever holds the cache calls it once per query,
// because only the holder knows how many senders share an entry: the
// engines of an in-process fleet all hit one cache ((K+1)·iterations per
// key, announced by their driver), a node daemon is a single sender
// (iterations).
func (d *Deployment) ExpectCertUses(n int) {
	d.certMu.Lock()
	defer d.certMu.Unlock()
	d.certUses += n
	if d.tparam.PrecomputeWorthwhile(d.certUses) {
		d.certs.Enable()
	}
}

// aggPlan bundles the ε-dependent half of a query: the noise spec and the
// compiled flat-aggregation circuit (tree roots compile per query, they
// depend on the group count).
type aggPlan struct {
	noise NoiseSpec
	circ  *circuit.Circuit
}

// Prepare compiles the aggregation plan for a privacy budget ahead of the
// first query that asks for it, so a driver can pay that cost when it opens
// the deployment rather than inside a query.
func (d *Deployment) Prepare(epsilon float64) error {
	_, err := d.planFor(epsilon)
	return err
}

// planFor returns (compiling and caching on first use) the aggregation plan
// for the given privacy budget. Safe for overlapping queries.
func (d *Deployment) planFor(epsilon float64) (*aggPlan, error) {
	d.planMu.Lock()
	defer d.planMu.Unlock()
	if pl, ok := d.plans[epsilon]; ok {
		return pl, nil
	}
	pl := &aggPlan{}
	if epsilon > 0 {
		pl.noise = DefaultNoiseSpec(epsilon, d.prog.Sensitivity, 0)
	}
	var err error
	if pl.circ, err = d.prog.AggregateCircuit(d.graph.N(), pl.noise); err != nil {
		return nil, err
	}
	d.plans[epsilon] = pl
	return pl, nil
}

// OwnerInput is one vertex's owner-supplied inputs: the initial state and
// the private data fed to every update.
type OwnerInput struct {
	InitState int64
	Priv      []uint8
}

// OwnerInputs collects, from a graph that holds every owner's inputs, the
// ones node id supplies under assignment a: one entry per vertex whose
// acting owner (first block member) is id — its own vertex, plus any it
// adopted in a re-blocking.
func OwnerInputs(g *Graph, a trustedparty.Assignment, id network.NodeID) map[int]OwnerInput {
	in := make(map[int]OwnerInput, 1)
	for v := 0; v < g.N(); v++ {
		if a.Blocks[g.NodeOf(v)][0] == id {
			in[v] = OwnerInput{InitState: g.InitState[v], Priv: g.Priv[v]}
		}
	}
	return in
}

// Chaos is the deterministic fault-injection harness: the first time a
// first-attempt run carrying it finishes the compute step of iteration
// Barrier, Kill is invoked and the run blocks until its context dies. Kill
// is the failure mode — cancel a context for an in-process crash, or exit
// the process to mimic kill -9. Firing at a barrier (not after a sleep)
// makes the kill reproducible regardless of host speed.
type Chaos struct {
	Barrier int
	Kill    func()
}

// Job is one run of one query on one node.
type Job struct {
	// Seq is the query id: every data-plane tag of the run lives under the
	// "q/<Seq>" namespace and the node keys its per-query state by it, so
	// jobs with distinct Seqs may overlap on one engine.
	Seq int
	// Attempt is 1 for a fresh dispatch and is bumped by every re-blocking
	// that resumes the query; attempts past the first run under
	// "q/<Seq>/a/<Attempt>" so they never read a superseded attempt's
	// strays.
	Attempt int
	// FromBarrier is the checkpoint barrier to resume from; −1 runs from
	// initialization.
	FromBarrier int
	Iterations  int
	// Epsilon is the output-privacy budget; 0 disables the final noise.
	Epsilon float64
	// Inputs holds the owner inputs for every vertex this node acts as
	// owner of (see OwnerInputs). They ride on the job, never on shared
	// state: queries may follow updated books, and overlapping queries must
	// each see their own snapshot.
	Inputs map[int]OwnerInput
	// Chaos, when set, injects one fault into this node (test/bench only).
	Chaos *Chaos
}

// Engine executes the roles of exactly one node — restricted to the
// vertices whose blocks contain it, the edges it relays or adjusts, and (if
// assigned) the aggregation block. It stands for a whole deployment
// lifetime: jobs overlap freely (each owns a nodeRun and a tag namespace),
// while ApplyRecovery, which rewrites the setup-derived state, must only
// run once every in-flight job has unwound.
type Engine struct {
	dep     *Deployment
	id      network.NodeID
	tr      network.Transport
	ot      gmw.OTOption
	setup   *trustedparty.SetupResult
	secrets trustedparty.NodeSecrets
	// ShipCheckpoint, when set before the first Run, receives every sealed
	// barrier snapshot this node produces (the cluster node sends it up the
	// control plane). Shipping is best-effort — a lost blob only narrows
	// which barrier a future recovery can resume from.
	ShipCheckpoint func(seq, attempt, barrier int, blob []byte)

	// setupMu guards the one-time setup accounting: the pairwise base-OT
	// handshakes are charged to the first job's Init phase, whichever of
	// several overlapping jobs that is.
	setupMu   sync.Mutex
	setupDone bool
	setupTime time.Duration

	// memberVertices lists the vertices whose block contains this node, in
	// ascending order; memberIdx gives this node's index in each block;
	// aggIdx its index in the aggregation block, or −1.
	memberVertices []int
	memberIdx      map[int]int
	aggIdx         int

	// --- Failure-recovery plane (active when the deployment has Recover). ---
	chaosFired atomic.Bool
	// keyMu guards the fleet recovery key exchange: the lowest-id node
	// generates the key and distributes it over the data plane, so no
	// coordinator ever holds it and checkpoint blobs stay opaque to one.
	keyMu  sync.Mutex
	recKey []byte
	// archMu guards the per-query archives: this node's own barrier
	// snapshots, retained past completion (capped) because a recovery may
	// resume a query this node already finished.
	archMu    sync.Mutex
	archives  map[int]*queryArchive
	archOrder []int
	// adoptedNK holds, per adopted vertex, the dead registrant's neighbor
	// keys (the re-issued certificates were randomized under them).
	adoptedNK map[int][]*big.Int
	// recChanged lists the vertices whose block membership changed in the
	// latest re-blocking; resumed runs re-randomize exactly these.
	recChanged []int
}

// archiveCap bounds how many per-query archives a standing engine retains.
const archiveCap = 8

// queryArchive is one query's recoverable state on one node.
type queryArchive struct {
	snaps map[int]*Snapshot
	// adoptBlob is the dead node's sealed snapshot at the resume barrier,
	// handed to the replacement by whoever stored it.
	adoptBlob []byte
}

// NewEngine builds node tr.ID()'s engine for a deployment from the
// already-parsed trusted-party publication and the node's own secrets. It
// does not verify the publication's signatures: bytes that arrive from
// outside are checked where they arrive (the cluster shell), so a driver
// that ran the trusted party in-process does not pay N² verifications.
func NewEngine(dep *Deployment, setup *trustedparty.SetupResult, secrets trustedparty.NodeSecrets, tr network.Transport, ot gmw.OTOption) (*Engine, error) {
	e := &Engine{
		dep: dep, id: tr.ID(), tr: tr, ot: ot, secrets: secrets,
		archives:  make(map[int]*queryArchive),
		adoptedNK: make(map[int][]*big.Int),
	}
	own := int(e.id) - 1
	if own < 0 || own >= dep.graph.N() {
		return nil, fmt.Errorf("vertex: node %d has no vertex in an %d-vertex graph", e.id, dep.graph.N())
	}
	if err := e.install(setup); err != nil {
		return nil, err
	}
	if e.memberIdx[own] != 0 {
		return nil, fmt.Errorf("vertex: node %d is not the first member of its own block", e.id)
	}
	return e, nil
}

// install makes a trusted-party publication current: the setup itself and
// this node's memberships derived from it.
func (e *Engine) install(setup *trustedparty.SetupResult) error {
	g, k1 := e.dep.graph, e.dep.cfg.K+1
	memberIdx := make(map[int]int)
	var memberVertices []int
	for v := 0; v < g.N(); v++ {
		members := setup.Assignment.Blocks[g.NodeOf(v)]
		if len(members) != k1 {
			return fmt.Errorf("vertex: block of vertex %d has %d members, want %d", v, len(members), k1)
		}
		if mi := slices.Index(members, e.id); mi >= 0 {
			memberIdx[v] = mi
			memberVertices = append(memberVertices, v)
		}
	}
	e.setup = setup
	e.memberIdx, e.memberVertices = memberIdx, memberVertices
	e.aggIdx = slices.Index(setup.Assignment.AggBlock, e.id)
	return nil
}

// Handshakes returns the number of pairwise base-OT handshakes this node
// has completed (0 under dealer-provisioned OT).
func (e *Engine) Handshakes() int64 {
	if s, ok := e.ot.(gmw.SubstrateOT); ok {
		return s.Sub.Handshakes()
	}
	return 0
}

// nodeRun is one query's protocol state on one node: its GMW sessions (all
// tagged under root, so their wire streams cannot collide with another
// query's) and this node's XOR share registers. Each Run owns exactly one
// nodeRun; overlapping jobs touch disjoint nodeRuns and disjoint tag
// namespaces. Together with the public assignment the registers are
// everything needed to re-enter the lock-step schedule at a barrier — they
// are what a Snapshot externalizes.
type nodeRun struct {
	root string // "q/<seq>", the tag namespace of this query
	// proto is the namespace protocol traffic actually uses: root on the
	// first attempt, root/a/<attempt> on post-recovery attempts. It nests
	// under root, so per-query byte accounting and final tag retirement
	// still cover every attempt.
	proto  string
	inputs map[int]OwnerInput
	// recKey is the fleet recovery key (nil when recovery is off).
	recKey []byte

	sessions map[int]*gmw.Party
	aggParty *gmw.Party

	// stateShare[v] / msgShare[v][slot] are this node's XOR shares for the
	// vertices it is a block member of.
	stateShare map[int]uint64
	msgShare   map[int][]uint64
}

// createSessions joins every GMW session this node is a member of, tagged
// under the query's namespace: the OT provisioning derives each query's
// streams from the tag, so once the pairwise handshakes are paid this is
// purely local seed derivation plus the GMW seed exchange. All sessions are
// joined concurrently and unboundedly: IKNP handshakes block until every
// member of a session arrives, and nodes discover their sessions in
// different orders, so any bounded schedule could deadlock across nodes.
func (e *Engine) createSessions(ctx context.Context, run *nodeRun) error {
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	join := func(members []network.NodeID, mi int, tag string, store func(*gmw.Party)) {
		defer wg.Done()
		p, err := gmw.NewParty(ctx, gmw.Config{
			Parties: members, Index: mi, Transport: e.tr, Tag: tag, OT: e.ot,
		})
		mu.Lock()
		defer mu.Unlock()
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("vertex: session %s: %w", tag, err)
		}
		store(p)
	}
	for _, v := range e.memberVertices {
		members := e.setup.Assignment.Blocks[e.dep.graph.NodeOf(v)]
		wg.Add(1)
		go join(members, e.memberIdx[v], network.Tag(run.proto, "blk", v), func(p *gmw.Party) {
			run.sessions[v] = p
		})
	}
	if e.aggIdx >= 0 {
		wg.Add(1)
		go join(e.setup.Assignment.AggBlock, e.aggIdx, network.Tag(run.proto, "aggblk"), func(p *gmw.Party) {
			run.aggParty = p
		})
	}
	wg.Wait()
	return firstErr
}

// queryTags carves one query's traffic out of the transport's shared
// per-prefix counters by its tag namespace — with overlapping jobs, the only
// way to tell one query's bytes from another's. withSetup additionally
// charges the pairwise substrate handshakes ("otsub", paid once per
// deployment) to this query.
func (e *Engine) queryTags(root string, withSetup bool) map[string]network.Stats {
	tags := e.tr.TagStats()
	for prefix := range tags {
		if !network.TagUnder(prefix, root) && !(withSetup && prefix == "otsub") {
			delete(tags, prefix)
		}
	}
	return tags
}

// queryStats sums queryTags.
func (e *Engine) queryStats(root string, withSetup bool) network.Stats {
	var s network.Stats
	for _, ts := range e.queryTags(root, withSetup) {
		s.BytesSent += ts.BytesSent
		s.BytesReceived += ts.BytesReceived
		s.MessagesSent += ts.MessagesSent
	}
	return s
}

// ownerOf returns the acting owner of vertex v: the first member of v's
// block. Before any re-blocking that is the registered owner (node v+1);
// after one it may be the replacement that adopted the dead owner's slot.
// Relay and adjuster roles follow the acting owner.
func (e *Engine) ownerOf(v int) network.NodeID {
	return e.setup.Assignment.Blocks[e.dep.graph.NodeOf(v)][0]
}

// neighborKey returns the key the adjuster role uses for edge slot
// (v, slot): this node's own registered key for its own vertex, the dead
// registrant's key for an adopted one — the trusted party re-issued the
// changed certificates under the ORIGINAL registrant's neighbor keys, so
// adjustments must use them too.
func (e *Engine) neighborKey(v, slot int) (*big.Int, error) {
	if int(e.id)-1 == v {
		return e.secrets.NeighborKeys[slot], nil
	}
	nks := e.adoptedNK[v]
	if slot >= len(nks) {
		return nil, fmt.Errorf("vertex: node %d has no neighbor key for adopted vertex %d slot %d", e.id, v, slot)
	}
	return nks[slot], nil
}

// recoveryKey returns the fleet recovery key, running the one-time
// exchange on first use: the lowest-id node generates it and ships it to
// every peer over the data plane, so checkpoint blobs stored by a
// coordinator stay opaque to it (a colluding coordinator+node pair could
// open them; see DESIGN.md). A failed exchange is retried by the next run
// rather than latched, so one canceled query cannot poison the engine.
func (e *Engine) recoveryKey(ctx context.Context) ([]byte, error) {
	e.keyMu.Lock()
	defer e.keyMu.Unlock()
	if e.recKey != nil {
		return e.recKey, nil
	}
	// The exchange runs among the blocks' members: a re-blocking keeps a
	// dead owner's block under the dead node's id, but no block lists the
	// dead node as a member — and a node can die before the first exchange.
	members := make(map[network.NodeID]bool)
	for _, blk := range e.setup.Assignment.Blocks {
		for _, m := range blk {
			members[m] = true
		}
	}
	minID := e.id
	for id := range members {
		if id < minID {
			minID = id
		}
	}
	if e.id == minID {
		key, err := NewRecoveryKey()
		if err != nil {
			return nil, err
		}
		for id := range members {
			if id == e.id {
				continue
			}
			if err := e.tr.Send(id, network.Tag("reckey"), key); err != nil {
				return nil, err
			}
		}
		e.recKey = key
		return key, nil
	}
	data, err := e.tr.Recv(ctx, minID, network.Tag("reckey"))
	if err != nil {
		return nil, err
	}
	if len(data) != RecoveryKeySize {
		return nil, fmt.Errorf("vertex: recovery key has %d bytes, want %d", len(data), RecoveryKeySize)
	}
	e.recKey = data
	return data, nil
}

// openArchive opens a query's archive — the local home for its barrier
// snapshots — evicting the oldest archive past archiveCap.
func (e *Engine) openArchive(seq int) {
	e.archMu.Lock()
	defer e.archMu.Unlock()
	if e.archives[seq] != nil {
		return
	}
	e.archives[seq] = &queryArchive{snaps: make(map[int]*Snapshot)}
	e.archOrder = append(e.archOrder, seq)
	if len(e.archOrder) > archiveCap {
		drop := e.archOrder[0]
		e.archOrder = e.archOrder[1:]
		delete(e.archives, drop)
	}
}

// replayedFrom counts the barriers this node re-executes when resuming at
// b: from b through the latest barrier its own earlier attempt had reached.
func (e *Engine) replayedFrom(seq, b int) int {
	e.archMu.Lock()
	defer e.archMu.Unlock()
	latest := b
	if arch := e.archives[seq]; arch != nil {
		for bb := range arch.snaps {
			if bb > latest {
				latest = bb
			}
		}
	}
	return latest - b + 1
}

// checkpointBarrier externalizes the run's share registers at barrier b:
// the snapshot is archived locally and its sealed encoding shipped. Barrier
// b is the start of iteration b — 0 after initialization, b ≥ 1 after
// communicate(b−1).
func (e *Engine) checkpointBarrier(run *nodeRun, job Job, b int) {
	if !e.dep.cfg.Recover {
		return
	}
	snap := &Snapshot{
		Barrier: b,
		State:   make(map[int]uint64, len(e.memberVertices)),
		Msgs:    make(map[int][]uint64, len(e.memberVertices)),
	}
	for _, v := range e.memberVertices {
		snap.State[v] = run.stateShare[v]
		snap.Msgs[v] = append([]uint64(nil), run.msgShare[v]...)
	}
	e.archMu.Lock()
	if arch := e.archives[job.Seq]; arch != nil {
		arch.snaps[b] = snap
	}
	e.archMu.Unlock()
	blob, err := EncryptSnapshot(run.recKey, EncodeSnapshot(snap))
	if err != nil {
		slog.Warn("checkpoint encrypt failed", "node", e.id, "query", job.Seq, "error", err)
		return
	}
	if e.ShipCheckpoint != nil {
		e.ShipCheckpoint(job.Seq, job.Attempt, b, blob)
	}
}

// restoreRun re-enters the lock-step schedule at a barrier: load this
// node's own archived snapshot, merge the dead owner's decrypted blob for
// freshly adopted vertices, re-randomize every changed block, and
// re-checkpoint the merged state so an even later recovery can still
// resume from this barrier.
func (e *Engine) restoreRun(ctx context.Context, run *nodeRun, job Job) error {
	seq, b := job.Seq, job.FromBarrier
	e.archMu.Lock()
	arch := e.archives[seq]
	var snap *Snapshot
	var blob []byte
	if arch != nil {
		snap = arch.snaps[b]
		blob = arch.adoptBlob
	}
	e.archMu.Unlock()
	if arch == nil {
		return fmt.Errorf("vertex: query %d has no archive to resume from", seq)
	}
	var dead *Snapshot
	for _, v := range e.memberVertices {
		if snap != nil {
			if w, ok := snap.State[v]; ok {
				run.stateShare[v] = w
				run.msgShare[v] = append([]uint64(nil), snap.Msgs[v]...)
				continue
			}
		}
		if dead == nil {
			if blob == nil {
				return fmt.Errorf("vertex: no checkpoint covers vertex %d at barrier %d of query %d", v, b, seq)
			}
			plain, err := DecryptSnapshot(run.recKey, blob)
			if err != nil {
				return fmt.Errorf("vertex: opening dead node's checkpoint for query %d: %w", seq, err)
			}
			if dead, err = DecodeSnapshot(plain); err != nil {
				return err
			}
			if dead.Barrier != b {
				return fmt.Errorf("vertex: dead node's checkpoint is at barrier %d, resume wants %d", dead.Barrier, b)
			}
		}
		w, ok := dead.State[v]
		if !ok {
			return fmt.Errorf("vertex: no checkpoint covers vertex %d at barrier %d of query %d", v, b, seq)
		}
		run.stateShare[v] = w
		run.msgShare[v] = append([]uint64(nil), dead.Msgs[v]...)
	}
	if err := e.rerandomize(ctx, run); err != nil {
		return err
	}
	e.checkpointBarrier(run, job, b)
	return nil
}

// rerandomize re-shares every changed block's registers among its new
// membership (source == destination): the replacement's restored shares
// came out of a stored blob, so without a fresh reshare that blob would
// stay a live share of the block. The XOR opens unchanged; every
// individual share is fresh. All sends complete before any receive so no
// two members wait on each other.
func (e *Engine) rerandomize(ctx context.Context, run *nodeRun) error {
	g, prog := e.dep.graph, e.dep.prog
	for _, v := range e.recChanged {
		mi, ok := e.memberIdx[v]
		if !ok {
			continue
		}
		members := e.setup.Assignment.Blocks[g.NodeOf(v)]
		if err := e.reshareSend(run.stateShare[v], prog.StateBits, mi, members, network.Tag(run.proto, "recover", v, "st")); err != nil {
			return err
		}
		for d := 0; d < g.D; d++ {
			if err := e.reshareSend(run.msgShare[v][d], prog.MsgBits, mi, members, network.Tag(run.proto, "recover", v, "m", d)); err != nil {
				return err
			}
		}
	}
	for _, v := range e.recChanged {
		if _, ok := e.memberIdx[v]; !ok {
			continue
		}
		members := e.setup.Assignment.Blocks[g.NodeOf(v)]
		st, err := e.reshareRecv(ctx, members, network.Tag(run.proto, "recover", v, "st"))
		if err != nil {
			return err
		}
		run.stateShare[v] = st
		for d := 0; d < g.D; d++ {
			m, err := e.reshareRecv(ctx, members, network.Tag(run.proto, "recover", v, "m", d))
			if err != nil {
				return err
			}
			run.msgShare[v][d] = m
		}
	}
	return nil
}

// ApplyRecovery commits a re-blocking to the standing engine. The caller
// runs it only after every superseded run on this engine has unwound, so
// rewriting the setup-derived state is unobserved, and spawns resumed runs
// only after it returns.
func (e *Engine) ApplyRecovery(rec *Recovery) error {
	g := e.dep.graph
	// Changed blocks — the ones the dead node sat in — read off the
	// assignment being replaced, before it is swapped out.
	var changed []int
	for v := 0; v < g.N(); v++ {
		if slices.Contains(e.setup.Assignment.Blocks[g.NodeOf(v)], rec.Dead) {
			changed = append(changed, v)
		}
	}
	if err := e.install(rec.Setup); err != nil {
		return fmt.Errorf("after reblock: %w", err)
	}
	e.recChanged = changed
	if e.id == rec.Repl {
		for v, nks := range rec.AdoptedKeys {
			e.adoptedNK[v] = nks
		}
		e.archMu.Lock()
		for seq, blob := range rec.DeadBlobs {
			if arch := e.archives[seq]; arch != nil {
				arch.adoptBlob = blob
			}
		}
		e.archMu.Unlock()
	}
	// The changed blocks' certificates were re-issued: drop the fixed-base
	// tables built from the old ones.
	e.dep.certs.Reset()
	return nil
}

// Run executes one query's full schedule on this node. The query's whole
// wire footprint lives under its "q/<seq>" tag namespace — GMW sessions,
// transfers, reshares — so overlapping jobs on one standing engine cannot
// collide. The first job to arrive pays the pairwise base-OT handshakes in
// its Init phase; all other jobs pay only seed derivation and share
// distribution. With recovery on, every phase
// barrier is checkpointed, and a resumed attempt (FromBarrier ≥ 0)
// restores its registers instead of redistributing initial shares.
func (e *Engine) Run(ctx context.Context, job Job) (*NodeResult, error) {
	g, prog := e.dep.graph, e.dep.prog
	iterations := job.Iterations
	if iterations < 0 {
		return nil, fmt.Errorf("vertex: negative iteration count %d", iterations)
	}
	plan, err := e.dep.planFor(job.Epsilon)
	if err != nil {
		return nil, err
	}
	run := &nodeRun{
		root:       network.Tag("q", job.Seq),
		inputs:     job.Inputs,
		sessions:   make(map[int]*gmw.Party),
		stateShare: make(map[int]uint64),
		msgShare:   make(map[int][]uint64),
	}
	run.proto = run.root
	if job.Attempt > 1 {
		run.proto = network.Tag(run.root, "a", job.Attempt)
	}
	for _, v := range e.memberVertices {
		if e.memberIdx[v] != 0 {
			continue
		}
		in, ok := run.inputs[v]
		if !ok {
			return nil, fmt.Errorf("vertex: node %d acts as owner of vertex %d but has no inputs for it", e.id, v)
		}
		if len(in.Priv) != prog.PrivBits(g.D) {
			return nil, fmt.Errorf("vertex: node %d got %d private input bits for vertex %d, program wants %d",
				e.id, len(in.Priv), v, prog.PrivBits(g.D))
		}
	}
	if e.dep.cfg.Recover {
		if run.recKey, err = e.recoveryKey(ctx); err != nil {
			return nil, err
		}
		e.openArchive(job.Seq)
	}

	rep := &Report{
		Iterations:     iterations,
		UpdateAndGates: e.dep.updCirc.NumAnd,
		AggAndGates:    plan.circ.NumAnd,
	}
	// Overlapping jobs racing through createSessions together still
	// handshake each pair exactly once — the substrate serializes per pair
	// — but the accounting needs a single owner.
	e.setupMu.Lock()
	paysSetup := !e.setupDone
	e.setupDone = true
	e.setupMu.Unlock()

	phaseStart := func() (time.Time, int64) {
		s := e.queryStats(run.root, paysSetup)
		return time.Now(), s.BytesSent + s.BytesReceived
	}
	phaseBytes := func(b0 int64) int64 {
		s := e.queryStats(run.root, paysSetup)
		return s.BytesSent + s.BytesReceived - b0
	}
	trace := obs.From(ctx)

	// Phases open a live span (Begin) and announce themselves to the
	// progress callback before doing any work: a phase that hangs or dies
	// is visible in heartbeat snapshots and in the failure report, not only
	// after it completes. On an error return the open span is deliberately
	// left unclosed — it marks where the protocol stopped.

	// --- Initialization (§3.6): session joins + owner share distribution. ---
	t0, b0 := phaseStart()
	obs.ReportProgress(ctx, "phase/init")
	endPhase := trace.Begin("phase/init")
	if err := e.createSessions(ctx, run); err != nil {
		return nil, err
	}
	if paysSetup {
		e.setupMu.Lock()
		e.setupTime = time.Since(t0)
		e.setupMu.Unlock()
		trace.SpanDur("init/sessions", t0, time.Since(t0))
	}
	resume := job.FromBarrier >= 0
	if resume {
		rep.ReplayedBarriers = e.replayedFrom(job.Seq, job.FromBarrier)
		if err := e.restoreRun(ctx, run, job); err != nil {
			return nil, err
		}
	} else {
		if err := e.initShares(ctx, run); err != nil {
			return nil, err
		}
		e.checkpointBarrier(run, job, 0)
	}
	rep.InitTime = time.Since(t0)
	rep.InitBytes = phaseBytes(b0)
	e.setupMu.Lock()
	rep.SetupTime = e.setupTime
	e.setupMu.Unlock()
	rep.BaseOTHandshakes = e.Handshakes()
	endPhase()

	// --- Iterations. Barrier b is the start of iteration b, so a resumed
	// run re-enters at its barrier and replays that iteration's compute. ---
	startIter := 0
	if resume {
		startIter = job.FromBarrier
	}
	for it := startIter; it <= iterations; it++ {
		t0, b0 = phaseStart()
		obs.ReportProgress(ctx, fmt.Sprintf("iter/%d/compute", it))
		endPhase = trace.Begin(fmt.Sprintf("iter/%d/compute", it))
		out, err := e.computeStep(ctx, run, it)
		if err != nil {
			return nil, fmt.Errorf("vertex: node %d iteration %d compute: %w", e.id, it, err)
		}
		endPhase()
		rep.ComputeTime += time.Since(t0)
		rep.ComputeBytes += phaseBytes(b0)

		// Deterministic fault injection: the node dies after this
		// iteration's compute, taking its un-checkpointed progress with it.
		if c := job.Chaos; c != nil && job.Attempt == 1 && it == c.Barrier &&
			e.chaosFired.CompareAndSwap(false, true) {
			slog.Warn("chaos: killing node", "node", e.id, "query", job.Seq, "barrier", it)
			c.Kill()
			<-ctx.Done()
			return nil, ctx.Err()
		}
		if it == iterations {
			break // final computation step: no communication follows
		}
		t0, b0 = phaseStart()
		obs.ReportProgress(ctx, fmt.Sprintf("iter/%d/communicate", it))
		endPhase = trace.Begin(fmt.Sprintf("iter/%d/communicate", it))
		if err := e.communicateStep(ctx, run, it, out); err != nil {
			return nil, fmt.Errorf("vertex: node %d iteration %d communicate: %w", e.id, it, err)
		}
		endPhase()
		rep.CommTime += time.Since(t0)
		rep.CommBytes += phaseBytes(b0)
		e.checkpointBarrier(run, job, it+1)
	}

	// --- Aggregation + noising (§3.6). ---
	t0, b0 = phaseStart()
	obs.ReportProgress(ctx, "phase/agg")
	endPhase = trace.Begin("phase/agg")
	result, hasResult, err := e.aggregate(ctx, run, plan)
	if err != nil {
		return nil, fmt.Errorf("vertex: node %d aggregation: %w", e.id, err)
	}
	endPhase()
	rep.AggTime = time.Since(t0)
	rep.AggBytes = phaseBytes(b0)

	// Per-query accounting, then retirement: snapshot this query's traffic
	// and fold its per-prefix counters into the trace, then drop its tag
	// namespace from the transport so a standing engine's counters and
	// mailboxes do not grow with every query served.
	res := &NodeResult{Node: e.id, Result: result, HasResult: hasResult, Report: *rep, Stats: e.queryStats(run.root, paysSetup)}
	if trace != nil {
		for prefix, ts := range e.queryTags(run.root, paysSetup) {
			trace.Add("net/"+prefix+"/bytes_sent", ts.BytesSent)
			trace.Add("net/"+prefix+"/bytes_recv", ts.BytesReceived)
			trace.Add("net/"+prefix+"/msgs_sent", ts.MessagesSent)
		}
	}
	e.tr.RetireTagPrefix(run.root)
	return res, nil
}

// initShares distributes the owner-generated initial shares (§3.6): for
// every vertex this node acts as owner of (its own, plus adopted ones after
// a re-blocking) it splits the state plus D copies of ⊥ and ships the
// shares to the block; then it collects its shares of every other vertex it
// is a block member of. All sends happen before any receive so no pair of
// nodes can wait on each other.
func (e *Engine) initShares(ctx context.Context, run *nodeRun) error {
	g, prog := e.dep.graph, e.dep.prog
	k1 := e.dep.cfg.K + 1
	for _, v := range e.memberVertices {
		if e.memberIdx[v] != 0 {
			continue
		}
		members := e.setup.Assignment.Blocks[g.NodeOf(v)]
		st := secretshare.SplitXOR(uint64(run.inputs[v].InitState), k1, prog.StateBits)
		msgs := make([][]uint64, g.D)
		for d := range msgs {
			msgs[d] = secretshare.SplitXOR(uint64(prog.NoOp), k1, prog.MsgBits)
		}
		for m := 1; m < k1; m++ {
			vals := append([]uint64{st[m]}, Column(msgs, m)...)
			if err := e.tr.Send(members[m], network.Tag(run.proto, "init", v), EncodeShares(vals)); err != nil {
				return err
			}
		}
		run.stateShare[v] = st[0]
		run.msgShare[v] = Column(msgs, 0)
	}

	for _, v := range e.memberVertices {
		if e.memberIdx[v] == 0 {
			continue
		}
		data, err := e.tr.Recv(ctx, e.ownerOf(v), network.Tag(run.proto, "init", v))
		if err != nil {
			return err
		}
		vals, err := DecodeShares(data, 1+g.D)
		if err != nil {
			return err
		}
		run.stateShare[v] = vals[0]
		run.msgShare[v] = vals[1:]
	}
	return nil
}

// memberInput assembles this node's input-share bits for vertex v's update:
// [state | priv | msgs]; only the acting owner (member 0) contributes the
// private data, everyone else zero shares for it.
func (e *Engine) memberInput(run *nodeRun, v int) []uint8 {
	g, prog := e.dep.graph, e.dep.prog
	in := WordToBits(run.stateShare[v], prog.StateBits)
	if e.memberIdx[v] == 0 {
		in = append(in, run.inputs[v].Priv...)
	} else {
		in = append(in, make([]uint8, prog.PrivBits(g.D))...)
	}
	for d := 0; d < g.D; d++ {
		in = append(in, WordToBits(run.msgShare[v][d], prog.MsgBits)...)
	}
	return in
}

// computeStep runs the update MPC of every block this node belongs to, all
// concurrently (each session's other members run theirs concurrently too).
// It returns this node's fresh output-message shares, [vertex][slot].
func (e *Engine) computeStep(ctx context.Context, run *nodeRun, iter int) (map[int][]uint64, error) {
	g, prog := e.dep.graph, e.dep.prog
	trace := obs.From(ctx)
	out := make(map[int][]uint64, len(e.memberVertices))
	// Inputs are assembled up front: memberInput reads the share maps,
	// which the evaluation goroutines mutate.
	inputs := make(map[int][]uint8, len(e.memberVertices))
	for _, v := range e.memberVertices {
		inputs[v] = e.memberInput(run, v)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for _, v := range e.memberVertices {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			outBits, err := run.sessions[v].Evaluate(ctx, e.dep.updCirc, inputs[v])
			if trace != nil && err == nil { // guard: the name formatting allocates
				trace.Span(fmt.Sprintf("iter/%d/blk/%d/gmw", iter, v), t0)
			}
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("block %d: %w", v, err)
				}
				return
			}
			run.stateShare[v] = BitsToWord(outBits[:prog.StateBits])
			slots := make([]uint64, g.D)
			for d := 0; d < g.D; d++ {
				lo := prog.StateBits + d*prog.MsgBits
				slots[d] = BitsToWord(outBits[lo : lo+prog.MsgBits])
			}
			out[v] = slots
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// communicateStep runs this node's roles in every edge transfer (§3.5):
// sender-block member, relay (node u, which aggregates and noises the
// encrypted subshares), adjuster (node v, which adjusts and fans out),
// receiver-block member. All roles across all edges run concurrently;
// transfers for edges this node plays no role in cost it nothing.
func (e *Engine) communicateStep(ctx context.Context, run *nodeRun, iter int, out map[int][]uint64) error {
	g, prog := e.dep.graph, e.dep.prog
	// Refresh all input slots with ⊥ shares; transfers overwrite the slots
	// with real in-edges. Share 0 (the owner's) carries ⊥, the rest zero.
	for _, v := range e.memberVertices {
		for d := 0; d < g.D; d++ {
			if e.memberIdx[v] == 0 {
				run.msgShare[v][d] = uint64(prog.NoOp) & secretshare.Mask(prog.MsgBits)
			} else {
				run.msgShare[v][d] = 0
			}
		}
	}

	trace := obs.From(ctx)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	record := func(u, v int, err error) {
		mu.Lock()
		defer mu.Unlock()
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("edge (%d,%d): %w", u, v, err)
		}
	}
	// span wraps one transfer role; the span name extends the wire tag
	// ("tx/<iter>/<u>/<v>") with the role this node played.
	span := func(tag, role string, t0 time.Time) {
		if trace != nil {
			trace.Span(tag+"/"+role, t0)
		}
	}
	for _, edge := range g.Edges() {
		u, v := edge[0], edge[1]
		vID := g.NodeOf(v)
		// Relay and adjuster duties follow the ACTING owners of u and v —
		// after a re-blocking those roles move with the adopted owner slot,
		// while certificates stay keyed by the registered owner.
		relayID, adjustID := e.ownerOf(u), e.ownerOf(v)
		slotIn, err := g.InSlot(u, v)
		if err != nil {
			return err
		}
		tag := network.Tag(run.proto, "tx", iter, u, v)
		sendersB := e.setup.Assignment.Blocks[g.NodeOf(u)]
		recvB := e.setup.Assignment.Blocks[vID]

		if _, ok := e.memberIdx[u]; ok {
			share := out[u][OutSlot(g, u, v)]
			wg.Add(1)
			go func() {
				defer wg.Done()
				t0 := time.Now()
				// Key lookup (and a possible first-iteration table build)
				// runs in the goroutine so builds for different edges
				// overlap instead of stalling the dispatch loop.
				keys := e.recipientKeys(v, slotIn)
				record(u, v, transfer.SendShare(ctx, e.dep.tparam, e.tr, relayID, tag, share, keys))
				span(tag, "send", t0)
			}()
		}
		if e.id == relayID {
			wg.Add(1)
			go func() {
				defer wg.Done()
				t0 := time.Now()
				record(u, v, transfer.RunRelay(ctx, e.dep.tparam, e.tr, sendersB, adjustID, tag, dp.CryptoSource{}))
				span(tag, "relay", t0)
			}()
		}
		if e.id == adjustID {
			nk, err := e.neighborKey(v, slotIn)
			if err != nil {
				return err
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				t0 := time.Now()
				record(u, v, transfer.RunAdjust(ctx, e.dep.tparam, e.tr, relayID, recvB, nk, tag))
				span(tag, "adjust", t0)
			}()
		}
		if _, ok := e.memberIdx[v]; ok {
			wg.Add(1)
			go func() {
				defer wg.Done()
				t0 := time.Now()
				share, err := transfer.ReceiveShare(ctx, e.dep.tparam, e.tr, adjustID, tag, e.secrets.PrivateKeys, e.dep.table)
				if err != nil {
					record(u, v, err)
					return
				}
				span(tag, "recv", t0)
				mu.Lock()
				run.msgShare[v][slotIn] = share
				mu.Unlock()
			}()
		}
	}
	wg.Wait()
	return firstErr
}

// recipientKeys returns the certificate keys for edge slot (v, slotIn) —
// B_v's keys re-randomized with v's slotIn-th neighbor key — with
// fixed-base tables when the deployment has run long enough to amortize
// them.
func (e *Engine) recipientKeys(v, slotIn int) transfer.RecipientKeys {
	cert := e.setup.Certs[e.dep.graph.NodeOf(v)][slotIn]
	return e.dep.certs.Keys(v, slotIn, transfer.RecipientKeys(cert.Keys))
}

// reshareSend is the source half of moving an XOR-shared word between
// blocks: split this node's share of a bits-wide word into one subshare
// per destination member and ship them under tag/<myIdx>. Block
// memberships are public (§3.4), so this needs only the secure
// point-to-point channels the transport models — the identity-hiding
// transfer protocol is required only for graph edges.
func (e *Engine) reshareSend(share uint64, bits, myIdx int, dst []network.NodeID, tag string) error {
	subs := secretshare.SplitXOR(share, len(dst), bits)
	for y, dest := range dst {
		if err := e.tr.Send(dest, network.Tag(tag, myIdx), EncodeShares(subs[y:y+1])); err != nil {
			return err
		}
	}
	return nil
}

// reshareRecv is the destination half: collect one subshare from every
// source member and XOR them into this member's fresh share.
func (e *Engine) reshareRecv(ctx context.Context, src []network.NodeID, tag string) (uint64, error) {
	var fresh uint64
	for m, id := range src {
		data, err := e.tr.Recv(ctx, id, network.Tag(tag, m))
		if err != nil {
			return 0, err
		}
		vals, err := DecodeShares(data, 1)
		if err != nil {
			return 0, err
		}
		fresh ^= vals[0]
	}
	return fresh, nil
}

// evalAndOpen is the aggregation block's last step: append this member's
// own uniform random bits for the noise sampler (the circuit sees the XOR
// of all contributions, so one honest member suffices for uniformity),
// evaluate, and open only the noised result.
func (e *Engine) evalAndOpen(ctx context.Context, run *nodeRun, c *circuit.Circuit, noise NoiseSpec, input []uint8) (int64, bool, error) {
	noiseBits, err := RandomInputBits(noise.RandBits())
	if err != nil {
		return 0, false, err
	}
	outShares, err := run.aggParty.Evaluate(ctx, c, append(input, noiseBits...))
	if err != nil {
		return 0, false, err
	}
	open, err := run.aggParty.Open(ctx, outShares)
	if err != nil {
		return 0, false, err
	}
	return circuit.DecodeWordS(open), true, nil
}

// aggregate re-shares vertex states into the aggregation machinery (flat or
// tree-shaped, §3.6), runs the aggregation MPC with in-MPC Laplace noise,
// and — for aggregation-block members — opens the noised result.
func (e *Engine) aggregate(ctx context.Context, run *nodeRun, plan *aggPlan) (int64, bool, error) {
	g, prog := e.dep.graph, e.dep.prog
	if fanIn := e.dep.cfg.AggFanIn; fanIn > 0 && g.N() > fanIn {
		return e.aggregateTree(ctx, run, plan)
	}
	aggMembers := e.setup.Assignment.AggBlock

	for _, v := range e.memberVertices {
		if err := e.reshareSend(run.stateShare[v], prog.StateBits, e.memberIdx[v], aggMembers, network.Tag(run.proto, "aggsh", v)); err != nil {
			return 0, false, err
		}
	}
	if e.aggIdx < 0 {
		return 0, false, nil
	}
	var input []uint8
	for v := 0; v < g.N(); v++ {
		members := e.setup.Assignment.Blocks[g.NodeOf(v)]
		col, err := e.reshareRecv(ctx, members, network.Tag(run.proto, "aggsh", v))
		if err != nil {
			return 0, false, err
		}
		input = append(input, WordToBits(col, prog.StateBits)...)
	}
	return e.evalAndOpen(ctx, run, plan.circ, plan.noise, input)
}

// aggregateTree is the two-level aggregation tree of §3.6: each group of up
// to AggFanIn vertices is partially aggregated by the block of the group's
// first vertex, and the aggregation block combines the partials and draws
// the noise.
func (e *Engine) aggregateTree(ctx context.Context, run *nodeRun, plan *aggPlan) (int64, bool, error) {
	g, prog := e.dep.graph, e.dep.prog
	fanIn := e.dep.cfg.AggFanIn
	nGroups := (g.N() + fanIn - 1) / fanIn
	aggMembers := e.setup.Assignment.AggBlock
	trace := obs.From(ctx)
	groupRange := func(grp int) (int, int) {
		lo := grp * fanIn
		return lo, min(lo+fanIn, g.N())
	}

	// Phase A: every member ships its state subshares to its group's leaf
	// block. All sends complete before any leaf evaluation blocks.
	for grp := 0; grp < nGroups; grp++ {
		lo, hi := groupRange(grp)
		leafMembers := e.setup.Assignment.Blocks[g.NodeOf(lo)]
		for v := lo; v < hi; v++ {
			mi, ok := e.memberIdx[v]
			if !ok {
				continue
			}
			if err := e.reshareSend(run.stateShare[v], prog.StateBits, mi, leafMembers, network.Tag(run.proto, "leafsh", grp, v)); err != nil {
				return 0, false, err
			}
		}
	}

	// Phase B: leaf evaluations, concurrently across the groups whose leaf
	// block contains this node (each group uses a distinct session).
	partial := make(map[int]uint64)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	leaf := func(grp, lo, hi int) error {
		t0 := time.Now()
		partialCirc, err := prog.PartialAggregateCircuit(hi - lo)
		if err != nil {
			return err
		}
		var input []uint8
		for v := lo; v < hi; v++ {
			members := e.setup.Assignment.Blocks[g.NodeOf(v)]
			col, err := e.reshareRecv(ctx, members, network.Tag(run.proto, "leafsh", grp, v))
			if err != nil {
				return err
			}
			input = append(input, WordToBits(col, prog.StateBits)...)
		}
		outShares, err := run.sessions[lo].Evaluate(ctx, partialCirc, input)
		if err != nil {
			return err
		}
		mu.Lock()
		partial[grp] = BitsToWord(outShares)
		mu.Unlock()
		if trace != nil {
			trace.Span(fmt.Sprintf("agg/leaf/%d", grp), t0)
		}
		return nil
	}
	for grp := 0; grp < nGroups; grp++ {
		lo, hi := groupRange(grp)
		if _, ok := e.memberIdx[lo]; !ok {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := leaf(grp, lo, hi); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("leaf aggregation %d: %w", grp, err)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return 0, false, firstErr
	}

	// Phase C: leaf members ship partial subshares to the root block.
	for grp := 0; grp < nGroups; grp++ {
		lo, _ := groupRange(grp)
		mi, ok := e.memberIdx[lo]
		if !ok {
			continue
		}
		if err := e.reshareSend(partial[grp], prog.AggBits, mi, aggMembers, network.Tag(run.proto, "rootsh", grp)); err != nil {
			return 0, false, err
		}
	}

	// Phase D: root combine + noise + open, by aggregation-block members.
	if e.aggIdx < 0 {
		return 0, false, nil
	}
	defer trace.Span("agg/root", time.Now())
	combineCirc, err := prog.CombineCircuit(nGroups, plan.noise)
	if err != nil {
		return 0, false, err
	}
	var input []uint8
	for grp := 0; grp < nGroups; grp++ {
		lo, _ := groupRange(grp)
		leafMembers := e.setup.Assignment.Blocks[g.NodeOf(lo)]
		col, err := e.reshareRecv(ctx, leafMembers, network.Tag(run.proto, "rootsh", grp))
		if err != nil {
			return 0, false, err
		}
		input = append(input, WordToBits(col, prog.AggBits)...)
	}
	result, ok, err := e.evalAndOpen(ctx, run, combineCirc, plan.noise, input)
	if err != nil {
		return 0, false, fmt.Errorf("root aggregation: %w", err)
	}
	return result, ok, nil
}
