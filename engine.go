package dstress

import (
	"context"
	"fmt"
	"time"

	"dstress/internal/cluster"
	"dstress/internal/network"
	"dstress/internal/obs"
	"dstress/internal/vertex"
)

// ---------------------------------------------------------------------------
// Unified execution API
//
// DStress has one driver (internal/cluster: a coordinator that plays the
// trusted party and drives node engines over the control plane) and two
// ways to start its nodes: the simulation runs them as goroutines of this
// process on the in-memory hub, the cluster deployment as real daemons
// over TCP. Both run the identical protocol and are byte-compatible on the
// wire; the Engine interface runs the same Job through either, and Session
// keeps a deployment standing across multiple budgeted queries.
// ---------------------------------------------------------------------------

// Job describes one query against a deployment: which program over which
// graph, how many iterations, and the output-privacy budget ε for the
// released aggregate.
type Job struct {
	// Program is the compiled vertex program. The simulation backend uses
	// it directly; it may be nil when Spec is set.
	Program *Program
	// Spec names a registered program family (see RegisterProgram).
	// Cluster backends require it — circuit-builder closures cannot travel
	// over the control plane, so every node compiles the spec locally —
	// and the simulation backend falls back to it when Program is nil.
	Spec *ProgramSpec
	// Graph is the distributed property graph, including every owner's
	// initial states and private inputs.
	Graph *Graph
	// Iterations is the number of computation+communication steps.
	Iterations int
	// Epsilon is the output-privacy budget charged for this query's
	// release; 0 disables the final Laplace noise (correctness tests
	// only — a real deployment always noises, §3.6).
	Epsilon float64
	// Decode converts the released raw fixed-point aggregate to its
	// real-world value (e.g. CircuitConfig.Decode for dollars). Optional;
	// when nil, Result.Value is the raw value.
	Decode func(int64) float64
}

// program resolves the compiled program from Program or Spec.
func (j *Job) program() (*Program, error) {
	if j.Program != nil {
		return j.Program, nil
	}
	if j.Spec != nil {
		return j.Spec.Build()
	}
	return nil, fmt.Errorf("dstress: job has neither Program nor Spec")
}

// Result is the outcome of one query.
type Result struct {
	// Raw is the opened (noised) aggregate in raw fixed-point units.
	Raw int64
	// Value is Decode(Raw), or float64(Raw) when the job has no decoder.
	Value float64
	// Epsilon is the privacy budget this release consumed.
	Epsilon float64
	// Report describes the execution that produced the result.
	Report *Report
}

// Report summarizes one execution with the same fields on both engines. It
// is the engine's folded phase table (vertex.Report: the per-phase wall
// times and traffic of the paper's Figures 3–6, setup cost, traffic per
// node, circuit sizes, recoveries — see its fields for how each folds) plus
// what only the driver of a deployment knows.
//
// Both engines run the same driver, which folds the per-node rows of the
// one protocol engine with one function (vertex.Fold): each phase's
// duration is the slowest node's, and the first query's Init (and
// SetupTime) additionally carries the base-OT handshakes, which the
// simulation's dealer-provisioned OT does not have.
type Report struct {
	vertex.Report
	// Transport is "sim" or "tcp".
	Transport string
	// Nodes is the number of participants.
	Nodes int
	// WallTime is the end-to-end duration observed by the driver, from job
	// dispatch to the last node's report.
	WallTime time.Duration
	// NodePhases is the per-node table behind the folded numbers — one row
	// per live participant, sorted by node id. "sim" nodes share one
	// process's cores, so a straggler there says as much about scheduling
	// as about the node.
	NodePhases []NodePhase
}

// NodePhase is one node's row: its own per-phase wall times and
// sent+received traffic, as reported by the node itself.
type NodePhase = vertex.NodeResult

// PhaseLeader names the slowest node for one phase — the straggler whose
// wall time the folded Report shows, since every phase barriers on the
// protocol's own communication.
type PhaseLeader = vertex.PhaseLeader

// SlowestNodes returns the straggler per phase (init, compute, communicate,
// aggregate), in execution order; nil when the report has no per-node
// table.
func (r *Report) SlowestNodes() []PhaseLeader { return vertex.SlowestNodes(r.NodePhases) }

// Engine runs jobs. Both backends implement it: NewSimEngine executes
// in-process against the simulated hub, NewClusterEngine stands up real
// TCP-connected node daemons. Canceling ctx aborts the run — every blocked
// protocol receive returns an error instead of hanging on a dead or slow
// counterparty.
type Engine interface {
	Run(ctx context.Context, job Job) (*Result, error)
}

// SessionEngine is an Engine that can hold a deployment open across
// queries: trusted-party setup, GMW handshakes, and fixed-base tables are
// paid once at Open and reused by every Query. Each Open stands up an
// independent deployment; queries on one session multiplex up to its
// MaxConcurrent admission limit (each under its own "q/<id>" tag
// namespace, so their protocol messages cannot collide), and beyond the
// limit Query fails fast with ErrSessionBusy. The internal/serve query
// service scales throughput on both axes: a pool of sessions, each
// admitting several concurrent queries.
type SessionEngine interface {
	Engine
	Open(ctx context.Context, job Job, budget float64) (*Session, error)
}

// EngineConfig parameterizes a deployment. Unlike the per-query knobs on
// Job, these are fixed for the deployment's lifetime.
type EngineConfig struct {
	// Group is the cyclic group for ElGamal and base OTs.
	Group Group
	// K is the collusion bound; blocks have K+1 members (§3.2).
	K int
	// Alpha is the transfer-noise parameter (§3.5); 0 disables edge
	// noising.
	Alpha float64
	// NoiseShift samples output noise at a granularity of 2^NoiseShift raw
	// LSBs (set to the program's fractional bits).
	NoiseShift int
	// OTMode selects dealer vs IKNP OT provisioning. Simulation only:
	// cluster runs always use IKNP (a dealer broker is an in-process
	// object and cannot span machines).
	OTMode OTMode
	// TablePFail is the per-decryption failure budget used to size the
	// ElGamal lookup table (Appendix B); 0 means 1e-12.
	TablePFail float64
	// AggFanIn enables hierarchical aggregation (§3.6); 0 keeps the single
	// aggregation block.
	AggFanIn int
	// HeartbeatInterval is the health plane's ping cadence on either
	// engine; 0 means the default (1s). A failure's post-mortem settles
	// within two intervals (150ms at the least), so fault-injection runs
	// shorten it.
	HeartbeatInterval time.Duration
	// StallWindow is how long an in-flight query's slowest node may sit in
	// one phase before the coordinator's watchdog flags the query as
	// stalled; 0 means the cluster default (30s).
	StallWindow time.Duration
	// Recover opts the deployment into failure recovery: share state is
	// checkpointed at every phase barrier and an attributed node death
	// re-blocks the deployment around the casualty and resumes in-flight
	// queries instead of failing them. Off by default (fail-stop, matching
	// the paper's prototype).
	Recover bool
	// ChaosNode and ChaosBarrier inject a deterministic fault for recovery
	// testing: node ChaosNode dies right after the compute step of
	// iteration ChaosBarrier of its first query. Without Recover that query
	// fails with a *QueryError naming the node; with it the deployment
	// re-blocks around the node. 0 disables.
	ChaosNode    int
	ChaosBarrier int
}

// OTMode selects the GMW oblivious-transfer provisioning (OTDealer or
// OTIKNP).
type OTMode = cluster.OTMode

// ProgramSpec names a vertex program plus its compile-time parameters, so
// a program can be shipped over the cluster control plane by name and
// compiled identically on every node.
type ProgramSpec = cluster.ProgramSpec

// RegisterProgram adds a custom program family to the spec registry; every
// node binary of a cluster must register the same kinds.
func RegisterProgram(kind string, build func(ProgramSpec) (*Program, error)) {
	cluster.RegisterProgram(kind, build)
}

// FleetHealth is a snapshot of a deployment's health plane — see
// Session.Fleet.
type FleetHealth = cluster.FleetHealth

// NodeHealth is one node's row in a FleetHealth snapshot.
type NodeHealth = cluster.NodeHealth

// QueryError is the structured error a query fails with, on either engine,
// when the health plane can attribute the failure to a node: it names the
// dead or
// faulty node, its last completed phase, and carries the flight-recorder
// tail. Recover it with errors.As and write Dump() next to your logs.
type QueryError = cluster.QueryError

// ---------------------------------------------------------------------------
// Engines
// ---------------------------------------------------------------------------

// SimEngine executes jobs on a simulated deployment: a cluster whose nodes
// run as goroutines of this process on one in-memory network hub.
type SimEngine struct {
	cfg EngineConfig
}

var (
	_ SessionEngine = (*SimEngine)(nil)
	_ SessionEngine = (*ClusterEngine)(nil)
)

// NewSimEngine returns the simulation backend.
func NewSimEngine(cfg EngineConfig) *SimEngine { return &SimEngine{cfg: cfg} }

// Run executes one job end to end: deployment setup, the query, teardown.
func (e *SimEngine) Run(ctx context.Context, job Job) (*Result, error) { return runOnce(ctx, e, job) }

// Open stands the simulated deployment up — one node per vertex on the
// hub, registration and trusted-party setup over the cluster control
// plane, circuit compilation — and returns a Session whose queries reuse
// all of it. budget is the total ε the session may spend (0 = unmetered);
// job's Iterations and Epsilon become the session's defaults.
func (e *SimEngine) Open(ctx context.Context, job Job, budget float64) (*Session, error) {
	prog, err := job.program()
	if err != nil {
		return nil, err
	}
	sc, err := scenario(e.cfg, job)
	if err != nil {
		return nil, err
	}
	sess, err := cluster.OpenHub(ctx, sc, prog, e.cfg.OTMode)
	if err != nil {
		return nil, err
	}
	return newSession(&fleetBackend{sess: sess, transport: "sim", nodes: job.Graph.N()}, job, budget), nil
}

// ClusterEngine executes jobs on a loopback TCP cluster: one coordinator
// plus one real node daemon per vertex, each with its own tcpnet data
// plane, every message crossing a real socket. Jobs must carry a Spec.
// Multi-machine deployments run cmd/dstress-node on each machine instead;
// the protocol and wire format are identical.
type ClusterEngine struct {
	cfg EngineConfig
}

// NewClusterEngine returns the loopback-cluster backend. OTMode is ignored:
// cluster nodes always provision OTs with IKNP.
func NewClusterEngine(cfg EngineConfig) *ClusterEngine { return &ClusterEngine{cfg: cfg} }

// Run executes one job end to end on a fresh loopback cluster.
func (e *ClusterEngine) Run(ctx context.Context, job Job) (*Result, error) {
	return runOnce(ctx, e, job)
}

// Open stands a loopback cluster up — node registration, trusted-party
// setup, standing control connections — and returns a Session whose
// queries reuse the fleet (GMW handshakes happen once, on the first
// query). budget is the total ε the session may spend (0 = unmetered).
func (e *ClusterEngine) Open(ctx context.Context, job Job, budget float64) (*Session, error) {
	if job.Spec == nil {
		return nil, fmt.Errorf("dstress: cluster jobs need a Spec (closures cannot cross the control plane); register the program and name it")
	}
	sc, err := scenario(e.cfg, job)
	if err != nil {
		return nil, err
	}
	sess, err := cluster.OpenLoopback(ctx, sc)
	if err != nil {
		return nil, err
	}
	return newSession(&fleetBackend{sess: sess, transport: "tcp", nodes: job.Graph.N()}, job, budget), nil
}

// runOnce is both engines' Run: open, one query with the job's own
// parameters, close.
func runOnce(ctx context.Context, e SessionEngine, job Job) (*Result, error) {
	sess, err := e.Open(ctx, job, 0)
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	return sess.Query(ctx, QuerySpec{Iterations: job.Iterations, Epsilon: job.Epsilon})
}

// scenario is the deployment either engine stands up for a job.
func scenario(cfg EngineConfig, job Job) (cluster.Scenario, error) {
	if cfg.Group == nil {
		return cluster.Scenario{}, fmt.Errorf("dstress: engine needs a group")
	}
	sc := cluster.Scenario{
		Cfg: cluster.ConfigWire{
			Group: cfg.Group.Name(), K: cfg.K, Alpha: cfg.Alpha,
			Epsilon: job.Epsilon, NoiseShift: cfg.NoiseShift,
			TablePFail: cfg.TablePFail, AggFanIn: cfg.AggFanIn,
		},
		Graph:        job.Graph,
		Iterations:   job.Iterations,
		Heartbeat:    cfg.HeartbeatInterval,
		StallWindow:  cfg.StallWindow,
		Recover:      cfg.Recover,
		ChaosNode:    network.NodeID(cfg.ChaosNode),
		ChaosBarrier: cfg.ChaosBarrier,
	}
	if job.Spec != nil {
		sc.Prog = *job.Spec
	}
	return sc, nil
}

// fleetBackend is a session's standing deployment on either engine: the
// driver's session over the nodes it started.
type fleetBackend struct {
	sess      *cluster.Session
	transport string
	nodes     int
}

func (b *fleetBackend) query(ctx context.Context, seq int, q QuerySpec) (int64, *Report, error) {
	sum, err := b.sess.Run(ctx, cluster.Query{Seq: seq, Iterations: q.Iterations, Epsilon: q.Epsilon})
	if err != nil {
		return 0, nil, err
	}
	mergeTrace(obs.From(ctx), sum)
	return sum.Result, &Report{
		Report: *sum.Report, Transport: b.transport, Nodes: b.nodes,
		WallTime: sum.WallTime, NodePhases: sum.Nodes,
	}, nil
}

func (b *fleetBackend) fleet() *FleetHealth { return b.sess.Health() }

func (b *fleetBackend) close() error { return b.sess.Close() }

// mergeTrace folds the nodes' span tables and protocol counters into the
// caller's trace (a nil trace is a no-op), rebasing each node's table onto
// the driver's timeline: shift = nodeEpoch − offset − driverEpoch, with the
// health plane's estimate of the node's clock offset — zero while its first
// heartbeat is out, and on an in-process fleet, which shares one clock.
func mergeTrace(tr *obs.Trace, sum *cluster.Summary) {
	if tr == nil {
		return
	}
	base := tr.Epoch().UnixNano()
	for _, n := range sum.Nodes {
		ci := sum.Clock[n.Node]
		shift := ci.EpochUnixNS - base
		if ci.Synced {
			shift -= int64(ci.Offset)
		}
		tr.AddSpans(obs.ShiftSpans(sum.Spans[n.Node], shift))
		tr.AddCounters(sum.Counters[n.Node])
	}
}
