package cluster

import (
	"flag"
	"fmt"
	"time"

	"dstress/internal/finnet"
	"dstress/internal/group"
	"dstress/internal/network"
	"dstress/internal/risk"
	"dstress/internal/vertex"
)

// Config is a deployment's settings, fixed for its lifetime. It is declared
// once: the facade aliases it, the flags of every command fill it, and the
// node engines are built from it (engineConfig).
type Config struct {
	// Group is the cyclic group for ElGamal and base OTs.
	Group group.Group
	// K is the collusion bound; blocks have K+1 members (§3.2).
	K int
	// Alpha is the transfer-noise parameter (§3.5); 0 disables edge
	// noising.
	Alpha float64
	// AggFanIn enables hierarchical aggregation (§3.6); 0 keeps the single
	// aggregation block.
	AggFanIn int
	// OTMode picks the OT provisioning of an in-process fleet (OpenHub).
	// Node daemons always run IKNP: a dealer broker is an in-process object
	// and cannot span machines.
	OTMode OTMode
	// HeartbeatInterval is the health plane's probe interval; 0 means one
	// second. A failure's post-mortem settles within two intervals (150ms
	// at the least), so fault-injection runs shorten it. StallWindow is how
	// long an in-flight query's slowest node may go without a phase advance
	// before the watchdog flags it; 0 means 30 seconds. Both are the
	// coordinator's own and never go on the wire.
	HeartbeatInterval time.Duration
	StallWindow       time.Duration
	// Recover opts the deployment into failure recovery: nodes checkpoint
	// encrypted share snapshots at every phase barrier, and on an
	// attributed node death the coordinator re-blocks around the casualty
	// and resumes every in-flight query instead of failing the session.
	// Off by default — then a node death is session-fatal (fail-stop),
	// matching the paper's prototype.
	Recover bool
}

// engineConfig is the one place a deployment's settings become a node
// engine's: for the deployment an in-process fleet shares and for a node
// daemon's own, which assembles its Config from the two messages it was
// sent.
func (c Config) engineConfig() vertex.Config {
	return vertex.Config{Group: c.Group, K: c.K, Alpha: c.Alpha, AggFanIn: c.AggFanIn, Recover: c.Recover}
}

// OTMode selects the GMW oblivious-transfer provisioning of an in-process
// fleet; node daemons always run IKNP.
type OTMode int

const (
	// OTDealer uses trusted-party-dealt correlated randomness (offline
	// phase); the online traffic is unchanged. Default for large runs.
	OTDealer OTMode = iota
	// OTIKNP runs real DH base OTs plus IKNP extension — the paper-faithful
	// configuration.
	OTIKNP
)

// Job is what a deployment computes: which program over which graph, and
// the default query — the iteration count and ε a query that names none
// uses, and the single query of RunOnce.
type Job struct {
	// Program is the compiled vertex program. An in-process fleet uses it
	// directly; it may be nil when Spec is set.
	Program *vertex.Program
	// Spec names a registered program family (see RegisterProgram). Node
	// daemons require it — circuit-builder closures cannot travel over the
	// control plane, so every node compiles the spec locally — and an
	// in-process fleet compiles it when Program is nil.
	Spec *ProgramSpec
	// Graph is the distributed property graph, including every owner's
	// initial states and private inputs: the coordinator is the experiment
	// driver that generated them.
	Graph *vertex.Graph
	// Iterations is the number of computation+communication steps.
	Iterations int
	// Epsilon is the output-privacy budget of the default query; 0
	// disables the final Laplace noise (correctness tests only — a real
	// deployment always noises, §3.6).
	Epsilon float64
	// Decode converts a released raw fixed-point aggregate to
	// Result.Value (e.g. risk.CircuitConfig.Decode for dollars); nil leaves
	// the raw value.
	Decode func(int64) float64
}

// program resolves the compiled program: Program as given, else Spec
// compiled through the registry.
func (j *Job) program() (*vertex.Program, error) {
	if j.Program != nil {
		return j.Program, nil
	}
	if j.Spec != nil {
		return j.Spec.Build()
	}
	return nil, fmt.Errorf("cluster: job has neither Program nor Spec")
}

// Scenario is everything a coordinator needs to stand one deployment up:
// its settings, its job, the session's ε budget, and an optional injected
// fault.
type Scenario struct {
	Config
	Job

	// Budget is the total ε the session's queries may spend under
	// sequential composition (0 = unmetered).
	Budget float64

	// ChaosNode and ChaosBarrier inject a deterministic kill into a fleet
	// started in this process (OpenLoopback, OpenHub): node ChaosNode dies
	// right after it finishes the compute step of iteration ChaosBarrier of
	// its first query. ChaosNode 0 disables. Multi-process deployments
	// inject faults via NodeOptions.Chaos (or dstress-node's
	// -chaos-barrier) instead.
	ChaosNode    network.NodeID
	ChaosBarrier int
}

// SyntheticOptions parameterize a synthetic core-periphery systemic-risk
// scenario. dstress-run, dstress-serve and dstress-node's coordinator all
// build theirs here, so the simulated and deployed paths run the identical
// experiment.
type SyntheticOptions struct {
	Model string // "en" or "egj"
	N     int    // number of banks
	Core  int    // core size of the core-periphery topology
	D     int    // public degree bound
	Shock int    // number of core banks whose reserves are wiped
	Seed  int64
	// Scenario carries the deployment's settings, budget and chaos, and the
	// default query (Iterations 0 means RecommendedIterations(N));
	// BuildSynthetic fills in its program, graph and decoder.
	Scenario
}

// SyntheticFlags registers on fs the flags that describe a synthetic
// deployment, with def's values as their defaults, and returns the
// function that builds it (see BuildSynthetic) once fs is parsed. def must
// name a group.
func SyntheticFlags(fs *flag.FlagSet, def SyntheticOptions) func() (Scenario, float64, error) {
	o := def
	fs.StringVar(&o.Model, "model", o.Model, "risk model: en (Eisenberg-Noe) or egj (Elliott-Golub-Jackson)")
	fs.IntVar(&o.N, "n", o.N, "number of banks = number of nodes")
	fs.IntVar(&o.Core, "core", o.Core, "core size of the core-periphery topology")
	fs.IntVar(&o.D, "d", o.D, "public degree bound D")
	fs.IntVar(&o.Shock, "shock", o.Shock, "number of core banks whose reserves are wiped")
	fs.Int64Var(&o.Seed, "seed", o.Seed, "synthetic network seed")
	fs.Func("group", fmt.Sprintf("crypto `group`: p256, p384, modp256 (default %s)", o.Group.Name()), func(name string) error {
		g, err := group.ByName(name)
		o.Group = g
		return err
	})
	fs.IntVar(&o.K, "k", o.K, "collusion bound k (blocks of k+1)")
	fs.Float64Var(&o.Alpha, "alpha", o.Alpha, "transfer-noise parameter in [0,1)")
	fs.IntVar(&o.AggFanIn, "aggfanin", o.AggFanIn, "aggregation-tree fan-in (0 = flat single-block aggregation)")
	fs.DurationVar(&o.HeartbeatInterval, "heartbeat", o.HeartbeatInterval, "fleet heartbeat interval (0 = 1s default)")
	fs.DurationVar(&o.StallWindow, "stall-window", o.StallWindow, "flag an in-flight query as stalled after this long without phase progress (0 = 30s default)")
	fs.BoolVar(&o.Recover, "recover", o.Recover, "enable failure recovery: checkpoint shares at phase barriers, re-block around a dead node and resume the query instead of failing")
	fs.IntVar(&o.Iterations, "iters", o.Iterations, "default iterations per query (0 = log2 N)")
	fs.Float64Var(&o.Epsilon, "epsilon", o.Epsilon, "default per-query output privacy budget ε (0 disables noise)")
	return func() (Scenario, float64, error) { return BuildSynthetic(o) }
}

// BuildSynthetic generates the banking network, compiles the scenario, and
// returns it together with the trusted-baseline TDS in dollars (what a
// regulator seeing all books would compute) for comparison against the
// released value. The scenario's Decode converts a released raw aggregate
// back to dollars.
func BuildSynthetic(o SyntheticOptions) (Scenario, float64, error) {
	sc := o.Scenario
	if sc.Iterations == 0 {
		sc.Iterations = risk.RecommendedIterations(o.N)
	}
	top, err := finnet.CorePeriphery(finnet.CorePeripheryParams{
		N: o.N, Core: o.Core, D: o.D, PeriLink: 2, Seed: o.Seed,
	})
	if err != nil {
		return Scenario{}, 0, err
	}
	shocked := make([]int, o.Shock)
	for i := range shocked {
		shocked[i] = i
	}

	sc.Spec = &ProgramSpec{Kind: o.Model, Width: 32, Unit: 1e6, GranularityDollars: 1e6, Leverage: 0.1}
	ccfg := risk.CircuitConfig{Width: sc.Spec.Width, Unit: sc.Spec.Unit}
	sc.Decode = ccfg.Decode
	var exactTDS float64
	switch o.Model {
	case "en":
		net := finnet.BuildEN(top, finnet.ENParams{
			CoreCash: 60e6, PeriCash: 5e6, CoreSize: o.Core, DebtScale: 30e6, Seed: o.Seed,
		})
		net.ApplyCashShock(shocked, 0)
		exactTDS = risk.SolveEN(net, 4*o.N, 1e-9).TDS
		sc.Graph, err = risk.ENGraph(net, ccfg, o.D)
	case "egj":
		net := finnet.BuildEGJ(top, finnet.EGJParams{
			CoreBase: 60e6, PeriBase: 8e6, CoreSize: o.Core,
			HoldingFrac: 0.15, ThresholdFrac: 0.9, PenaltyFrac: 0.25, Seed: o.Seed,
		})
		net.ApplyBaseShock(shocked, 0.3)
		exactTDS = risk.SolveEGJ(net, sc.Iterations+1).TDS
		sc.Graph, err = risk.EGJGraph(net, ccfg, o.D)
	default:
		return Scenario{}, 0, fmt.Errorf("cluster: unknown model %q (want en or egj)", o.Model)
	}
	if err != nil {
		return Scenario{}, 0, err
	}
	return sc, exactTDS, nil
}
