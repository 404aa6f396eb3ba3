package dstress

import (
	"context"

	"dstress/internal/cluster"
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
// wire; a SessionEngine runs the same Job through either, and Session (the
// driver's own session type) keeps a deployment standing across multiple
// budgeted queries. A deployment is described once: EngineConfig, Job,
// Session and its results are the driver's own types.
// ---------------------------------------------------------------------------

// Job is what a deployment computes — which program over which graph —
// and its default query: the iteration count, the ε charged for the
// released aggregate, and the decoder. See cluster.Job.
type Job = cluster.Job

// Session is a standing deployment answering a sequence of budgeted
// queries; see cluster.Session.
type Session = cluster.Session

// QuerySpec parameterizes one query against a standing Session.
type QuerySpec = cluster.Query

// Result is the outcome of one query.
type Result = cluster.Result

// Report summarizes one execution with the same fields on both engines:
// the folded phase table (vertex.Report) plus what only the driver of a
// deployment knows. See cluster.Report.
type Report = cluster.Report

// ErrSessionBusy reports a Query refused by the session's admission limit
// (charged nothing); ErrSessionClosed a Query after Close.
var (
	ErrSessionBusy   = cluster.ErrSessionBusy
	ErrSessionClosed = cluster.ErrSessionClosed
)

// NodePhase is one node's row: its own per-phase wall times and
// sent+received traffic, as reported by the node itself.
type NodePhase = vertex.NodeResult

// PhaseLeader names the slowest node for one phase — the straggler whose
// wall time the folded Report shows, since every phase barriers on the
// protocol's own communication.
type PhaseLeader = vertex.PhaseLeader

// EngineConfig is a deployment's settings, fixed for its lifetime; see
// cluster.Config. Unlike the per-query knobs on Job, these do not change
// between queries.
type EngineConfig = cluster.Config

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

// SessionEngine stands deployments of one configuration up and runs jobs
// on them: NewSimEngine's as node goroutines of this process on the
// in-memory hub, NewClusterEngine's as real node daemons on loopback TCP.
// Both run the identical protocol through the same driver. Canceling ctx
// aborts a run — every blocked protocol receive returns an error instead of
// hanging on a dead or slow counterparty.
type SessionEngine struct {
	cfg  EngineConfig
	open func(context.Context, cluster.Scenario) (*Session, error)
}

// NewSimEngine returns the simulation backend: a cluster whose nodes run as
// goroutines of this process on one in-memory network hub (cluster.OpenHub).
func NewSimEngine(cfg EngineConfig) SessionEngine { return SessionEngine{cfg, cluster.OpenHub} }

// NewClusterEngine returns the loopback-cluster backend: one coordinator
// plus one real node daemon per vertex, each with its own tcpnet data
// plane (cluster.OpenLoopback). Jobs must carry a Spec, and the nodes
// provision OTs with IKNP whatever cfg.OTMode says. Multi-machine
// deployments run cmd/dstress-node on each machine instead; the protocol
// and wire format are identical.
func NewClusterEngine(cfg EngineConfig) SessionEngine {
	return SessionEngine{cfg, cluster.OpenLoopback}
}

// Open stands a deployment up — node registration, trusted-party setup,
// the deployment handed to every node — and returns a Session whose
// queries reuse all of it. Each Open stands up an independent deployment;
// queries on one session multiplex up to its MaxConcurrent admission limit.
// budget is the total ε the session may spend (0 = unmetered); job's
// Iterations and Epsilon become the session's defaults.
func (e SessionEngine) Open(ctx context.Context, job Job, budget float64) (*Session, error) {
	return e.open(ctx, cluster.Scenario{Config: e.cfg, Job: job, Budget: budget})
}

// Run executes one job end to end: deployment setup, the job's own query,
// teardown.
func (e SessionEngine) Run(ctx context.Context, job Job) (*Result, error) {
	return cluster.RunOnce(ctx, func(ctx context.Context) (*Session, error) { return e.Open(ctx, job, 0) })
}
