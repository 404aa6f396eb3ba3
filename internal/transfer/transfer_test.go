package transfer

import (
	"context"
	"errors"
	"math/big"
	"sync"
	"testing"
	"testing/quick"

	"dstress/internal/dp"
	"dstress/internal/elgamal"
	"dstress/internal/group"
	"dstress/internal/network"
	"dstress/internal/secretshare"
)

var tg = group.ModP256()

// env is a complete two-block test environment: blocks B_u and B_v of K+1
// members each, relay node u, adjusting node v, receiver key material, and
// a certificate of re-randomized keys as the trusted party would issue.
type env struct {
	p        Params
	net      *network.Network
	relay    network.NodeID
	adjuster network.NodeID
	senders  []network.NodeID
	recvs    []network.NodeID
	privKeys [][]*elgamal.PrivateKey // per receiver member: L keys
	certKeys RecipientKeys
	neighbor *big.Int
	table    *elgamal.Table
}

func newEnv(t testing.TB, p Params) *env {
	t.Helper()
	e := &env{p: p, net: network.New(), relay: 100, adjuster: 200}
	for m := 0; m <= p.K; m++ {
		e.senders = append(e.senders, network.NodeID(1+m))
		e.recvs = append(e.recvs, network.NodeID(201+m))
	}
	e.neighbor = group.MustRandomScalar(p.Group)
	e.certKeys = make(RecipientKeys, p.K+1)
	for m := 0; m <= p.K; m++ {
		var keys []*elgamal.PrivateKey
		var certRow []elgamal.PublicKey
		for b := 0; b < p.L; b++ {
			sk, err := elgamal.GenerateKey(p.Group)
			if err != nil {
				t.Fatal(err)
			}
			keys = append(keys, sk)
			certRow = append(certRow, sk.PublicKey.Randomize(e.neighbor))
		}
		e.privKeys = append(e.privKeys, keys)
		e.certKeys[m] = certRow
	}
	e.table = p.MakeTable(1e-12)
	return e
}

// run executes a full transfer of the value's shares and returns the
// reconstructed value on the receiving side.
func (e *env) run(t testing.TB, value uint64) uint64 {
	t.Helper()
	shares := secretshare.SplitXOR(value, e.p.K+1, e.p.L)
	fresh := e.runShares(t, shares)
	return secretshare.CombineXOR(fresh)
}

// runShares transfers explicit sender shares and returns the receivers'
// fresh shares.
func (e *env) runShares(t testing.TB, shares []uint64) []uint64 {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, 2*(e.p.K+1)+2)
	fresh := make([]uint64, e.p.K+1)

	for m, id := range e.senders {
		m, id := m, id
		wg.Add(1)
		go func() {
			defer wg.Done()
			ep := e.net.Endpoint(id)
			errs <- SendShare(context.Background(), e.p, ep, e.relay, "tx", shares[m], e.certKeys)
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		errs <- RunRelay(context.Background(), e.p, e.net.Endpoint(e.relay), e.senders, e.adjuster, "tx", dp.CryptoSource{})
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		errs <- RunAdjust(context.Background(), e.p, e.net.Endpoint(e.adjuster), e.relay, e.recvs, e.neighbor, "tx")
	}()
	for m, id := range e.recvs {
		m, id := m, id
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := ReceiveShare(context.Background(), e.p, e.net.Endpoint(id), e.adjuster, "tx", e.privKeys[m], e.table)
			fresh[m] = v
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return fresh
}

func testParams() Params {
	return Params{Group: tg, K: 2, L: 8, Alpha: 0.5}
}

func TestParamsValidate(t *testing.T) {
	good := testParams()
	if err := good.Validate(); err != nil {
		t.Fatalf("good params rejected: %v", err)
	}
	bad := []Params{
		{Group: nil, K: 1, L: 8, Alpha: 0.5},
		{Group: tg, K: 0, L: 8, Alpha: 0.5},
		{Group: tg, K: 1, L: 0, Alpha: 0.5},
		{Group: tg, K: 1, L: 65, Alpha: 0.5},
		{Group: tg, K: 1, L: 8, Alpha: 1.0},
		{Group: tg, K: 1, L: 8, Alpha: -0.1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestTransferRoundTrip(t *testing.T) {
	e := newEnv(t, testParams())
	for _, v := range []uint64{0, 1, 0xa5, 0xff, 0x42} {
		if got := e.run(t, v); got != v {
			t.Errorf("transferred %#x, got %#x", v, got)
		}
	}
}

func TestTransferNoNoise(t *testing.T) {
	p := testParams()
	p.Alpha = 0 // Strawman #3 behaviour
	e := newEnv(t, p)
	for _, v := range []uint64{0, 0x7e, 0xff} {
		if got := e.run(t, v); got != v {
			t.Errorf("transferred %#x, got %#x", v, got)
		}
	}
}

func TestTransferHighNoise(t *testing.T) {
	// Heavy noise (alpha close to 1) must not affect correctness: parity
	// survives because the noise is always even.
	p := testParams()
	p.Alpha = 0.95
	e := newEnv(t, p)
	for _, v := range []uint64{0x33, 0xcc} {
		if got := e.run(t, v); got != v {
			t.Errorf("transferred %#x, got %#x", v, got)
		}
	}
}

func TestTransferLargerBlock(t *testing.T) {
	p := Params{Group: tg, K: 4, L: 6, Alpha: 0.5}
	e := newEnv(t, p)
	if got := e.run(t, 0x2b); got != 0x2b {
		t.Errorf("got %#x", got)
	}
}

func TestFreshSharesDifferFromSubshares(t *testing.T) {
	// The receiving side's shares are a *new* sharing: they reconstruct the
	// value but (with overwhelming probability over several trials) are not
	// the sender's shares.
	e := newEnv(t, testParams())
	value := uint64(0x5a)
	identical := 0
	const trials = 8
	for i := 0; i < trials; i++ {
		shares := secretshare.SplitXOR(value, e.p.K+1, e.p.L)
		fresh := e.runShares(t, shares)
		if secretshare.CombineXOR(fresh) != value {
			t.Fatal("reconstruction failed")
		}
		same := true
		for m := range shares {
			if shares[m] != fresh[m] {
				same = false
				break
			}
		}
		if same {
			identical++
		}
	}
	if identical == trials {
		t.Error("fresh shares always equal the sender's shares; re-sharing is broken")
	}
}

func TestQuickTransferRoundTrip(t *testing.T) {
	e := newEnv(t, testParams())
	f := func(v uint8) bool {
		return e.run(t, uint64(v)) == uint64(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestTrafficRolesMatchPaper(t *testing.T) {
	// §5.3: node u receives (K+1)² encrypted subshare bundles; members of
	// B_u send K+1 bundles each; node v sends K+1 bundles; members of B_v
	// receive a single bundle. Check the *ordering* of role traffic:
	// relay-received > sender-sent > receiver-received.
	e := newEnv(t, testParams())
	e.run(t, 0x12)
	relayStats := e.net.NodeStats(e.relay)
	senderStats := e.net.NodeStats(e.senders[0])
	recvStats := e.net.NodeStats(e.recvs[0])

	if relayStats.BytesReceived <= senderStats.BytesSent {
		t.Errorf("relay received %d ≤ single sender sent %d; aggregation fan-in missing",
			relayStats.BytesReceived, senderStats.BytesSent)
	}
	// The relay receives (K+1)x what one sender sends (K+1 senders).
	ratio := float64(relayStats.BytesReceived) / float64(senderStats.BytesSent)
	if ratio < float64(e.p.K) || ratio > float64(e.p.K+2) {
		t.Errorf("relay/sender traffic ratio = %.2f, want ≈ K+1 = %d", ratio, e.p.K+1)
	}
	// Each receiver gets exactly one bundle: less than a sender's output.
	if recvStats.BytesReceived >= senderStats.BytesSent {
		t.Errorf("receiver member got %d ≥ sender sent %d; expected a single bundle",
			recvStats.BytesReceived, senderStats.BytesSent)
	}
}

func TestAggregationCompressesTraffic(t *testing.T) {
	// The final protocol sends K+1 aggregated bundles u→v; Strawman #2
	// forwards (K+1)². The adjuster's received bytes must reflect that.
	p := testParams()
	p.Alpha = 0

	eFinal := newEnv(t, p)
	eFinal.run(t, 0x55)
	finalBytes := eFinal.net.NodeStats(eFinal.adjuster).BytesReceived

	eS2 := newEnv(t, p)
	runStrawman2(t, eS2, 0x55)
	s2Bytes := eS2.net.NodeStats(eS2.adjuster).BytesReceived

	if float64(s2Bytes) < 2*float64(finalBytes) {
		t.Errorf("strawman2 adjuster traffic %d not ≫ final %d", s2Bytes, finalBytes)
	}
}

func runStrawman2(t testing.TB, e *env, value uint64) uint64 {
	t.Helper()
	shares := secretshare.SplitXOR(value, e.p.K+1, e.p.L)
	var wg sync.WaitGroup
	errs := make(chan error, 2*(e.p.K+1)+2)
	fresh := make([]uint64, e.p.K+1)
	for m, id := range e.senders {
		m, id := m, id
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- Strawman2Send(context.Background(), e.p, e.net.Endpoint(id), e.relay, "s2x", m, shares[m], e.certKeys)
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		errs <- Strawman2Relay(context.Background(), e.p, e.net.Endpoint(e.relay), e.senders, e.adjuster, "s2x")
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		errs <- Strawman2Adjust(context.Background(), e.p, e.net.Endpoint(e.adjuster), e.relay, e.recvs, e.neighbor, "s2x")
	}()
	for m, id := range e.recvs {
		m, id := m, id
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := Strawman2Receive(context.Background(), e.p, e.net.Endpoint(id), e.adjuster, "s2x", e.privKeys[m], e.table)
			fresh[m] = v
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	got := secretshare.CombineXOR(fresh)
	if got != value {
		t.Fatalf("strawman2 transferred %#x, got %#x", value, got)
	}
	return got
}

func TestStrawman2RoundTrip(t *testing.T) {
	p := testParams()
	p.Alpha = 0
	e := newEnv(t, p)
	runStrawman2(t, e, 0x6d)
}

func TestStrawman1RoundTrip(t *testing.T) {
	p := testParams()
	p.Alpha = 0
	e := newEnv(t, p)
	shares := secretshare.SplitXOR(0x39, p.K+1, p.L)
	var wg sync.WaitGroup
	errs := make(chan error, 2*(p.K+1)+2)
	fresh := make([]uint64, p.K+1)
	for m, id := range e.senders {
		m, id := m, id
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- Strawman1Send(context.Background(), e.p, e.net.Endpoint(id), e.relay, "s1x", m, shares[m], e.certKeys)
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		errs <- Strawman1Relay(context.Background(), e.p, e.net.Endpoint(e.relay), e.senders, e.adjuster, "s1x")
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		errs <- Strawman1Adjust(context.Background(), e.p, e.net.Endpoint(e.adjuster), e.relay, e.recvs, e.neighbor, "s1x")
	}()
	for m, id := range e.recvs {
		m, id := m, id
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := Strawman1Receive(context.Background(), e.p, e.net.Endpoint(id), e.adjuster, "s1x", e.privKeys[m], e.table)
			fresh[m] = v
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := secretshare.CombineXOR(fresh); got != 0x39 {
		t.Errorf("strawman1 got %#x", got)
	}
}

func TestNoiseBoundMonotone(t *testing.T) {
	p := testParams()
	loose := p.NoiseBound(1e-3)
	tight := p.NoiseBound(1e-12)
	if loose > tight {
		t.Errorf("noise bound not monotone: %d @1e-3 > %d @1e-12", loose, tight)
	}
	p.Alpha = 0
	if p.NoiseBound(1e-12) != 0 {
		t.Error("no-noise bound should be 0")
	}
}

func TestMakeTableCoversSums(t *testing.T) {
	p := testParams()
	tab := p.MakeTable(1e-12)
	if tab.Lo > -2 || tab.Hi < int64(p.K+1)+2 {
		t.Errorf("table [%d,%d] too small", tab.Lo, tab.Hi)
	}
}

func TestSendShareValidation(t *testing.T) {
	e := newEnv(t, testParams())
	ep := e.net.Endpoint(e.senders[0])
	if err := SendShare(context.Background(), e.p, ep, e.relay, "v", 1<<uint(e.p.L), e.certKeys); err == nil {
		t.Error("oversized share accepted")
	}
	if err := SendShare(context.Background(), e.p, ep, e.relay, "v", 1, e.certKeys[:1]); err == nil {
		t.Error("short certificate accepted")
	}
}

func BenchmarkTransfer8BitK2(b *testing.B) {
	e := newEnv(b, testParams())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := e.run(b, 0x5a); got != 0x5a {
			b.Fatal("bad transfer")
		}
	}
}

func TestWrongNeighborKeyBreaksDecryption(t *testing.T) {
	// If node v adjusts with the wrong neighbor key (e.g. a colluder
	// replaying a certificate for a different slot), the recipients must
	// not recover valid plaintexts — the sums land outside the lookup
	// table with overwhelming probability.
	e := newEnv(t, testParams())
	e.neighbor = group.MustRandomScalar(tg) // not the key the cert used
	shares := secretshare.SplitXOR(0x77, e.p.K+1, e.p.L)
	var wg sync.WaitGroup
	failures := 0
	var mu sync.Mutex
	for m, id := range e.senders {
		m, id := m, id
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = SendShare(context.Background(), e.p, e.net.Endpoint(id), e.relay, "wk", shares[m], e.certKeys)
		}()
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		_ = RunRelay(context.Background(), e.p, e.net.Endpoint(e.relay), e.senders, e.adjuster, "wk", dp.CryptoSource{})
	}()
	go func() {
		defer wg.Done()
		_ = RunAdjust(context.Background(), e.p, e.net.Endpoint(e.adjuster), e.relay, e.recvs, e.neighbor, "wk")
	}()
	for m, id := range e.recvs {
		m, id := m, id
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := ReceiveShare(context.Background(), e.p, e.net.Endpoint(id), e.adjuster, "wk", e.privKeys[m], e.table); err != nil {
				mu.Lock()
				failures++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if failures == 0 {
		t.Error("all recipients decrypted under a wrong adjustment key")
	}
}

func TestCiphertextsUnlinkableAcrossTransfers(t *testing.T) {
	// Two transfers of the same value must produce entirely different
	// ciphertext bytes on the wire (fresh ephemerals + fresh subshares) —
	// the property that defeats Strawman #2's replay recognition.
	e := newEnv(t, testParams())
	before := e.net.NodeStats(e.adjuster).BytesReceived
	e.run(t, 0x2a)
	mid := e.net.NodeStats(e.adjuster).BytesReceived
	e.run(t, 0x2a)
	after := e.net.NodeStats(e.adjuster).BytesReceived
	// Same value, same sizes — byte-identical payload sizes are expected;
	// the unlinkability claim is about content, which the protocol-level
	// test cannot see through the stats API. Instead verify sizes match
	// (deterministic framing) while fresh runs still succeed.
	if mid-before != after-mid {
		t.Errorf("transfer sizes differ: %d vs %d", mid-before, after-mid)
	}
}

// TestPrecomputedCertKeysTransferIdentical is the regression test for the
// certificate-key cache: a transfer run with precomputed RecipientKeys
// decrypts to the same value as the uncached path, and with a shared
// ephemeral the sender-side ciphertexts are byte-identical, so the wire
// format is provably unchanged.
func TestPrecomputedCertKeysTransferIdentical(t *testing.T) {
	p := testParams()
	e := newEnv(t, p)
	pre := e.certKeys.Precompute()

	// Byte-level: every certificate key encrypts identically through its
	// table under a fixed ephemeral.
	y := group.MustRandomScalar(p.Group)
	for m := range e.certKeys {
		for b := range e.certKeys[m] {
			plain := e.certKeys[m][b].EncryptWithEphemeral(1, y)
			cached := pre[m][b].EncryptWithEphemeral(1, y)
			if string(p.Group.Encode(plain.C1)) != string(p.Group.Encode(cached.C1)) ||
				string(p.Group.Encode(plain.C2)) != string(p.Group.Encode(cached.C2)) {
				t.Fatalf("recipient %d bit %d: cached ciphertext differs from uncached", m, b)
			}
		}
	}

	// Protocol-level: full transfers through the cached keys still decrypt
	// to the transferred value (uncached correctness is TestTransferRoundTrip).
	e.certKeys = pre
	for _, v := range []uint64{0, 1, 0x5a, (1 << uint(p.L)) - 1} {
		if got := e.run(t, v); got != v {
			t.Fatalf("precomputed transfer of %#x returned %#x", v, got)
		}
	}
}

// TestPrecomputeWorthwhile pins the amortization gate's shape: few key
// uses skip table builds, many enable them.
func TestPrecomputeWorthwhile(t *testing.T) {
	p := testParams()
	if p.PrecomputeWorthwhile(12) {
		t.Error("12 uses should not precompute")
	}
	if !p.PrecomputeWorthwhile(200) {
		t.Error("200 uses should precompute")
	}
}

// TestCertKeyCacheFollowsCertificate pins that a cache entry serves only the
// certificate it was built from: engines sharing a cache apply a re-blocking
// one at a time, and an entry one of them built from a superseded
// certificate must not reach another that already holds the re-issued one.
func TestCertKeyCacheFollowsCertificate(t *testing.T) {
	p := testParams()
	old, reissued := newEnv(t, p).certKeys, newEnv(t, p).certKeys
	c := NewCertKeyCache()
	if got := c.Keys(0, 1, old); &got[0][0] != &old[0][0] {
		t.Fatal("disabled cache did not pass the raw keys through")
	}
	c.Enable()
	first := c.Keys(0, 1, old)
	if again := c.Keys(0, 1, old); &again[0][0] != &first[0][0] {
		t.Error("the same certificate rebuilt its entry instead of reusing it")
	}
	y := group.MustRandomScalar(p.Group)
	got := c.Keys(0, 1, reissued)[0][0].EncryptWithEphemeral(1, y)
	want := reissued[0][0].EncryptWithEphemeral(1, y)
	if string(p.Group.Encode(got.C2)) != string(p.Group.Encode(want.C2)) {
		t.Fatal("a re-issued certificate was served the entry built from the old one")
	}
	if c.Len() != 1 {
		t.Errorf("cache holds %d entries, want the one slot", c.Len())
	}
}

func TestCheckTableBound(t *testing.T) {
	// α near 1 would make MakeTable build millions of entries; CheckTable
	// refuses it with the typed error; α ≤ 0.99 passes up to the paper's
	// K = 19, α = 0.999 up to K = 8.
	huge := Params{Group: tg, K: 1, L: 8, Alpha: 0.99999}
	var te *TableSizeError
	if err := huge.CheckTable(1e-12); !errors.As(err, &te) {
		t.Fatalf("α=0.99999: CheckTable returned %v, want *TableSizeError", err)
	}
	if te.Entries != 16_777_219 {
		t.Errorf("TableSizeError = %+v, want 16,777,219 entries", *te)
	}
	for _, k := range []int{1, 2, 5, 8, 19} {
		for _, alpha := range []float64{0, 0.5, 0.9, 0.99, 0.999} {
			p := Params{Group: tg, K: k, L: 8, Alpha: alpha}
			if err := p.CheckTable(1e-12); (err != nil) != (alpha == 0.999 && k > 8) {
				t.Errorf("K=%d α=%v: CheckTable = %v", k, alpha, err)
			}
		}
	}
}
