package vertex

import (
	"context"
	crand "crypto/rand"
	"fmt"
	"path"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dstress/internal/gmw"
	"dstress/internal/group"
	"dstress/internal/network"
	"dstress/internal/obs"
	"dstress/internal/ot"
	"dstress/internal/trustedparty"
)

// OTMode selects the GMW oblivious-transfer provisioning.
type OTMode int

const (
	// OTDealer uses trusted-party-dealt correlated randomness (offline
	// phase); the online traffic is unchanged. Default for large runs.
	OTDealer OTMode = iota
	// OTIKNP runs real DH base OTs plus IKNP extension — the paper-faithful
	// configuration.
	OTIKNP
)

// Config parameterizes a DStress deployment.
type Config struct {
	// Group is the cyclic group for ElGamal and base OTs.
	Group group.Group
	// K is the collusion bound; blocks have K+1 members (§3.2).
	K int
	// Alpha is the transfer-noise parameter (§3.5); 0 disables edge noising.
	Alpha float64
	// Epsilon is the output-privacy budget for this query; 0 disables the
	// final Laplace noise (used by correctness tests only — a real
	// deployment always noises, §3.6).
	Epsilon float64
	// NoiseShift samples output noise at a granularity of 2^NoiseShift raw
	// LSBs (set to the program's fractional bits).
	NoiseShift int
	// OTMode selects dealer vs IKNP OT provisioning (Runtime only: cluster
	// nodes always use IKNP).
	OTMode OTMode
	// TablePFail is the per-decryption failure budget used to size the
	// ElGamal lookup table (Appendix B); 0 means 1e-12.
	TablePFail float64
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
	// Chaos deterministically injects a node death mid-iteration (after the
	// compute step of iteration Barrier, before its communicate) and drives
	// the recovery path: re-block around the victim, restore the last
	// common barrier, re-share, and replay. Runtime only, test/bench only: a
	// chaos recovery mutates the deployment's assignment, so no other query
	// may be in flight on the runtime when it fires.
	Chaos *ChaosSpec
}

// ChaosSpec names the deterministic fault injection: Victim dies during
// iteration Barrier of the first query attempt.
type ChaosSpec struct {
	Victim  network.NodeID
	Barrier int
}

// Runtime runs a whole deployment in one process: it plays the trusted
// party, stands one Engine per node on a shared network hub, fans each
// query out to them and folds their reports. It holds no protocol logic of
// its own — every step a node takes is Engine code, the same a cluster
// node daemon runs over TCP.
type Runtime struct {
	cfg   Config
	graph *Graph
	net   *network.Network
	dep   *Deployment
	// broker is the deployment-wide dealer broker (OTDealer): every engine
	// draws its sessions' tag-derived streams from it.
	broker *ot.DealerBroker

	// tp and regs are retained from setup so a chaos recovery can re-block
	// around the victim exactly as the cluster coordinator does; ckpts is
	// the coordinator-side table of the engines' sealed checkpoints.
	tp    *trustedparty.TrustedParty
	regs  []trustedparty.NodeRegistration
	ckpts Checkpoints

	// engines is the live fleet in ascending id order, setup the current
	// trusted-party publication. Both are replaced by a chaos recovery,
	// which runs with no other query in flight.
	engines []*Engine
	setup   *trustedparty.SetupResult

	// setupTime is the one-time deployment bootstrap cost measured in New.
	setupTime time.Duration
	// qid hands out query ids for Run; the session facade assigns ids itself
	// via RunQueryID.
	qid atomic.Int64
}

// New stands the deployment up: circuit compilation, trusted-party setup
// (§3.4), one engine per node, and the pairwise base-OT warm-up (OTIKNP),
// which blocks on the in-process peers and is bounded by ctx.
func New(ctx context.Context, cfg Config, prog *Program, g *Graph) (*Runtime, error) {
	setupStart := time.Now()
	depCfg := cfg
	depCfg.Recover = cfg.Recover || cfg.Chaos != nil
	dep, err := NewDeployment(depCfg, prog, g)
	if err != nil {
		return nil, err
	}
	if _, err := dep.planFor(cfg.Epsilon); err != nil {
		return nil, err
	}
	r := &Runtime{cfg: cfg, graph: g, net: network.New(), dep: dep}

	// OT provisioning is the one thing that differs per mode, and it is an
	// option handed to the engines, not a code path.
	var otFor func(ep *network.Endpoint) gmw.OTOption
	switch cfg.OTMode {
	case OTDealer:
		r.broker = ot.NewDealerBroker()
		otFor = func(*network.Endpoint) gmw.OTOption { return gmw.DealerOT{Broker: r.broker} }
	case OTIKNP:
		otFor = func(ep *network.Endpoint) gmw.OTOption {
			return gmw.SubstrateOT{Sub: ot.NewSubstrate(cfg.Group, ep)}
		}
	default:
		return nil, fmt.Errorf("vertex: unknown OT mode %d", cfg.OTMode)
	}

	tpParams := trustedparty.Params{Group: cfg.Group, K: cfg.K, D: g.D, L: prog.MsgBits, Recoverable: cfg.Recover}
	if r.tp, err = trustedparty.New(tpParams); err != nil {
		return nil, err
	}
	r.regs = make([]trustedparty.NodeRegistration, g.N())
	secrets := make([]trustedparty.NodeSecrets, g.N())
	for v := range r.regs {
		if r.regs[v], secrets[v], err = trustedparty.RegisterNode(tpParams, g.NodeOf(v)); err != nil {
			return nil, err
		}
	}
	if r.setup, err = r.tp.Setup(r.regs); err != nil {
		return nil, err
	}
	r.engines = make([]*Engine, g.N())
	for v := range r.engines {
		ep := r.net.Endpoint(g.NodeOf(v))
		e, err := NewEngine(dep, r.setup, secrets[v], ep, otFor(ep))
		if err != nil {
			return nil, err
		}
		e.ShipCheckpoint = func(seq, _, barrier int, blob []byte) { r.ckpts.Store(seq, e.id, barrier, blob) }
		r.engines[v] = e
	}
	if err := r.each(func(_ int, e *Engine) error { return e.Warm(ctx) }); err != nil {
		return nil, err
	}
	r.setupTime = time.Since(setupStart)
	return r, nil
}

// each runs fn for every live engine concurrently and returns the first
// error (in fleet order).
func (r *Runtime) each(fn func(i int, e *Engine) error) error {
	errs := make([]error, len(r.engines))
	var wg sync.WaitGroup
	for i, e := range r.engines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(i, e)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// BaseOTHandshakes returns the deployment-wide count of pairwise base-OT
// bootstraps, summed over the live nodes: one per ordered node pair that
// shares at least one GMW session, independent of the block count.
func (r *Runtime) BaseOTHandshakes() int64 {
	var total int64
	for _, e := range r.engines {
		total += e.Handshakes()
	}
	return total
}

// Run executes `iterations` computation+communication steps, a final
// computation step, and the aggregation+noising step at the configured
// Epsilon, under a fresh auto-assigned query id, returning the opened
// (noised) aggregate. Canceling ctx aborts the run: every blocked receive
// returns the context's error.
func (r *Runtime) Run(ctx context.Context, iterations int) (int64, *Report, error) {
	return r.RunQueryID(ctx, int(r.qid.Add(1)), iterations, r.cfg.Epsilon)
}

// RunQueryID executes one query against the standing deployment at the
// given privacy budget, with all of its protocol traffic namespaced under
// the "q/<qid>" tag root. Everything built in New is reused across calls;
// the query's GMW sessions are derived locally from the warmed substrate
// (or dealer broker) seeds, so distinct qids yield cryptographically
// independent streams and overlapping calls interleave safely on one hub.
// Callers must not reuse a qid that is still in flight; the session facade
// hands out unique ids.
func (r *Runtime) RunQueryID(ctx context.Context, qid, iterations int, epsilon float64) (int64, *Report, error) {
	// All K+1 senders of an edge share the engines' one certificate cache.
	r.dep.ExpectCertUses(iterations * (r.cfg.K + 1))
	root := network.Tag("q", qid)
	// Retire the query's namespace on every exit — the engines retire their
	// own on success; this sweep also covers failed runs, a dead victim's
	// endpoint, and the dealer's stream entries.
	defer func() {
		r.net.RetireTagPrefix(root)
		if r.broker != nil {
			r.broker.RetireTagPrefix(root)
		}
		r.ckpts.Drop(qid)
	}()

	job := Job{Seq: qid, Attempt: 1, FromBarrier: -1, Iterations: iterations, Epsilon: epsilon}
	var times Report // the phase durations, accumulated over attempts
	recoveries := 0
	for {
		nodes, victim, err := r.runAttempt(ctx, job, &times)
		if victim == 0 && err != nil {
			return 0, nil, err
		}
		if victim == 0 {
			result, rep, err := Fold(nodes, len(r.setup.Assignment.AggBlock))
			if err != nil {
				return 0, nil, err
			}
			// The phase durations are the driver's own (see phaseClock).
			for p := range phaseVocab {
				t, _ := rep.slot(p)
				own, _ := times.slot(p)
				*t = *own
			}
			rep.SetupTime = r.setupTime
			rep.Recoveries = recoveries
			return result, rep, nil
		}
		// The injected death: play coordinator, then resume on the survivors.
		obs.ReportProgress(ctx, "recover")
		if job.FromBarrier, err = r.reblock(victim, qid); err != nil {
			return 0, nil, fmt.Errorf("vertex: recovery from node %d death: %w", victim, err)
		}
		job.Attempt++
		recoveries++
	}
}

// runAttempt fans one attempt of a query out to every live engine and
// waits for all of them. The first failure cancels the rest, which would
// otherwise wait forever on the failed node's messages. The attempt's
// phase windows are added to times. A non-zero victim reports that the
// configured chaos fired during this attempt.
func (r *Runtime) runAttempt(ctx context.Context, job Job, times *Report) (nodes []NodeResult, victim network.NodeID, err error) {
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	clock := &phaseClock{report: obs.ProgressFrom(ctx), seen: make(map[string]bool)}
	actx = obs.WithProgress(actx, clock.enter)
	// When the caller traces, every node records into its own trace, as a
	// cluster node does, and the tables are merged on the caller's timeline.
	parent := obs.From(ctx)
	traces := make([]*obs.Trace, len(r.engines))
	var died atomic.Bool
	var failOnce sync.Once
	nodes = make([]NodeResult, len(r.engines))
	r.each(func(i int, e *Engine) error {
		ectx, j := actx, job
		if parent != nil {
			traces[i] = obs.NewTrace(int32(e.id))
			traces[i].SetQuery(network.Tag("q", job.Seq))
			ectx = obs.With(actx, traces[i])
		}
		j.Inputs = OwnerInputs(r.graph, r.setup.Assignment, e.id)
		if c := r.cfg.Chaos; c != nil && e.id == c.Victim {
			j.Chaos = &Chaos{Barrier: c.Barrier, Kill: func() { died.Store(true); cancel() }}
		}
		res, runErr := e.Run(ectx, j)
		if runErr != nil {
			failOnce.Do(func() { err = runErr })
			cancel()
			return nil
		}
		nodes[i] = *res
		return nil
	})
	clock.charge(times, time.Now())
	if parent != nil {
		for _, tr := range traces {
			parent.AddSpans(obs.ShiftSpans(tr.Spans(), tr.Epoch().Sub(parent.Epoch()).Nanoseconds()))
			parent.AddCounters(tr.Counters())
		}
	}
	if died.Load() {
		return nil, r.cfg.Chaos.Victim, nil
	}
	return nodes, 0, err
}

// reblock is the coordinator's half of a recovery, for the injected death
// of node dead during query seq: plan the re-blocking, hand the
// replacement the victim's sealed checkpoint at the query's resume
// barrier, and commit the new assignment to every survivor. It returns the
// barrier the next attempt resumes from.
func (r *Runtime) reblock(dead network.NodeID, seq int) (int, error) {
	live := make([]network.NodeID, len(r.engines))
	for i, e := range r.engines {
		live[i] = e.id
	}
	rec, err := PlanRecovery(r.tp, r.setup, r.regs, r.graph, live, dead)
	if err != nil {
		return 0, err
	}
	barrier := r.ckpts.ResumeBarrier(seq, live)
	if barrier >= 0 {
		rec.DeadBlobs = map[int][]byte{seq: r.ckpts.Blob(seq, dead, barrier)}
	}
	survivors := make([]*Engine, 0, len(r.engines)-1)
	for _, e := range r.engines {
		if e.id == dead {
			continue
		}
		if err := e.ApplyRecovery(rec); err != nil {
			return 0, err
		}
		survivors = append(survivors, e)
	}
	r.engines, r.setup = survivors, rec.Setup
	return barrier, nil
}

// phaseClock folds the engines' N progress streams into the query's one
// timeline. The nodes are only loosely in step — each is wherever its own
// messages let it be — so the driver cuts the query's phases the way a
// single observer would: a phase begins, is announced, and ends its
// predecessor when the first node enters it. The windows so cut partition
// the attempt's wall time, which the per-node maxima a cluster reports do
// not (early nodes wait inside the next phase for late ones, so those
// overlap).
type phaseClock struct {
	report obs.ProgressFunc // the caller's callback, or nil

	mu     sync.Mutex
	seen   map[string]bool
	phases []string // in the order they began
	begins []time.Time
}

func (c *phaseClock) enter(phase string) {
	now := time.Now()
	c.mu.Lock()
	first := !c.seen[phase]
	if first {
		c.seen[phase] = true
		c.phases, c.begins = append(c.phases, phase), append(c.begins, now)
	}
	c.mu.Unlock()
	if first && c.report != nil {
		c.report(phase)
	}
}

// charge adds the attempt's phase windows, the last of which closes at
// end, to rep's phase durations.
func (c *phaseClock) charge(rep *Report, end time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, phase := range c.phases {
		until := end
		if i+1 < len(c.begins) {
			until = c.begins[i+1]
		}
		// The step is the path's leaf ("phase/init", "iter/<i>/compute", …);
		// one the table does not name counts as init.
		row := max(0, slices.IndexFunc(phaseVocab[:], func(ph Phase) bool { return ph.Step == path.Base(phase) }))
		t, _ := rep.slot(row)
		*t += until.Sub(c.begins[i])
	}
}

// Net exposes the network hub for traffic inspection.
func (r *Runtime) Net() *network.Network { return r.net }

// ---------------------------------------------------------------------------
// Helpers
//
// The wire-format primitives of share messages: both ends of every init and
// reshare message use exactly these encodings.
// ---------------------------------------------------------------------------

// OutSlot returns the slot of edge u → v on the sending side, or -1.
func OutSlot(g *Graph, u, v int) int {
	for d, w := range g.Out[u] {
		if w == v {
			return d
		}
	}
	return -1
}

// Column extracts entry m of every row.
func Column(rows [][]uint64, m int) []uint64 {
	out := make([]uint64, len(rows))
	for i, r := range rows {
		out[i] = r[m]
	}
	return out
}

// WordToBits unpacks the low `bits` bits of w, LSB first.
func WordToBits(w uint64, bits int) []uint8 {
	out := make([]uint8, bits)
	for i := 0; i < bits; i++ {
		out[i] = uint8((w >> i) & 1)
	}
	return out
}

// BitsToWord packs LSB-first bits into a word.
func BitsToWord(bits []uint8) uint64 {
	var w uint64
	for i, b := range bits {
		w |= uint64(b&1) << i
	}
	return w
}

// EncodeShares serializes share words as little-endian uint64s.
func EncodeShares(vals []uint64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		for b := 0; b < 8; b++ {
			out[i*8+b] = byte(v >> (8 * b))
		}
	}
	return out
}

// DecodeShares parses exactly n little-endian uint64 share words.
func DecodeShares(data []byte, n int) ([]uint64, error) {
	if len(data) != 8*n {
		return nil, fmt.Errorf("vertex: share payload has %d bytes, want %d", len(data), 8*n)
	}
	out := make([]uint64, n)
	for i := range out {
		for b := 0; b < 8; b++ {
			out[i] |= uint64(data[i*8+b]) << (8 * b)
		}
	}
	return out, nil
}

// RandomInputBits draws n uniform unpacked bits from crypto/rand.
func RandomInputBits(n int) ([]uint8, error) {
	if n == 0 {
		return nil, nil
	}
	buf := make([]byte, (n+7)/8)
	if _, err := crand.Read(buf); err != nil {
		return nil, fmt.Errorf("vertex: reading entropy: %w", err)
	}
	return ot.UnpackBits(buf, n), nil
}
