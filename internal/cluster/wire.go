package cluster

// Control-plane protocol. Each node keeps one connection to the
// coordinator — TCP for a daemon, an in-memory pipe for a node of an
// in-process fleet — and the conversation on it is strictly ordered, so
// messages are plain gob-encoded structs in a fixed sequence:
//
//	node → coordinator   helloMsg     (node id + data-plane address)
//	coordinator → node   paramsMsg    (public system parameters, §3.4 step 1)
//	node → coordinator   regMsg       (ElGamal public keys + neighbor keys;
//	                                   the private halves never leave the node)
//	coordinator → node   ctrlMsg      (either a jobMsg — program spec,
//	                                   topology, owner inputs, node directory,
//	                                   signed setup, iteration count, the §3.4
//	                                   step-2/3 publication — or a pingMsg
//	                                   heartbeat probe)
//	node → coordinator   nodeMsg      (either a doneMsg — the node's
//	                                   vertex.NodeResult row — or a beatMsg
//	                                   heartbeat reply)
//
// After registration both directions speak envelopes (ctrlMsg/nodeMsg)
// because a gob stream decodes into one concrete type per Decode call, and
// the health plane interleaves heartbeats with job traffic on the same
// ordered connection.
//
// The coordinator doubles as the trusted party: like the Federal Reserve in
// the paper's banking scenario it knows who participates and runs Setup,
// and it never sees cryptographic secrets or shares — nodes generate their
// keys locally and register only public material. One honest deviation from
// the paper's trust model: the coordinator is also the experiment driver
// that generates the scenario, so each node's private vertex inputs ride to
// it on jobMsg. A production deployment would have every participant supply
// its own inputs out of band (see DESIGN.md).

import (
	"dstress/internal/network"
	"dstress/internal/obs"
	"dstress/internal/trustedparty"
	"dstress/internal/vertex"
)

// ConfigWire is the serializable subset of vertex.Config. The crypto group
// travels by name; OT provisioning is not included because node daemons
// always use IKNP (a dealer broker is an in-process object and cannot span
// machines — the paper-faithful configuration needs no dealer anyway); only
// an in-process fleet picks it, when it is opened (OpenHub).
type ConfigWire struct {
	Group      string
	K          int
	Alpha      float64
	Epsilon    float64
	NoiseShift int
	TablePFail float64
	AggFanIn   int
}

// TopologyWire is the public part of the graph: degree bound and edge
// lists. Vertex v is owned by node v+1. Private inputs are NOT part of the
// topology; each node receives only its own in jobMsg.
type TopologyWire struct {
	D   int
	Out [][]int
}

type helloMsg struct {
	ID network.NodeID
	// DataAddr is the address other nodes should dial for the tcpnet data
	// plane.
	DataAddr string
}

type paramsMsg struct {
	Group string
	K     int
	D     int
	L     int
}

type regMsg struct {
	Reg trustedparty.WireRegistration
}

// ctrlMsg is the coordinator→node envelope: exactly one field is non-nil.
type ctrlMsg struct {
	Job     *jobMsg
	Ping    *pingMsg
	Recover *recoverMsg
}

// nodeMsg is the node→coordinator envelope: exactly one field is non-nil.
type nodeMsg struct {
	Done *doneMsg
	Beat *beatMsg
	Ckpt *ckptMsg
}

// pingMsg is the coordinator's periodic heartbeat probe. T1 is the
// coordinator's wall clock at send time (Unix nanoseconds) — the first
// timestamp of the NTP-style exchange the clock estimator folds.
type pingMsg struct {
	T1 int64
}

// beatMsg is the node's heartbeat reply: the NTP timestamp echo, runtime
// stats, live per-query progress and open spans, and the flight-recorder
// events since the previous beat.
type beatMsg struct {
	ID network.NodeID
	// T1 echoes the ping; T2 is the node's clock at ping receipt, T3 at
	// reply send. The coordinator supplies T4 (its receive time) to
	// complete the exchange.
	T1, T2, T3 int64
	// Runtime stats, sampled at reply time.
	Goroutines int
	HeapBytes  uint64
	GCPauseNS  uint64
	// Handshakes is the substrate's cumulative base-OT handshake count.
	Handshakes int64
	// Progress reports each in-flight query's last entered phase, sorted
	// by Seq.
	Progress []queryProgress
	// Open is the live snapshot of currently-open spans across in-flight
	// queries (offsets relative to each job's own trace epoch).
	Open []obs.Span
	// Flight carries the node's flight-recorder events recorded since the
	// previous beat, capped at the ring capacity.
	Flight []obs.FlightEvent
}

// queryProgress is one in-flight query's position on one node.
type queryProgress struct {
	Seq   int
	Phase string
	// Steps counts phase advances since the job started. The stall
	// watchdog compares Steps counters and change times, never phase
	// strings, so it needs no ordering over the phase taxonomy.
	Steps int64
}

type jobMsg struct {
	// Shutdown ends the standing session: the node exits cleanly without
	// running another query, and every other field is ignored.
	Shutdown bool

	Cfg  ConfigWire
	Prog ProgramSpec
	// Topo, Directory, and Setup describe the standing deployment; they
	// ride only on a session's first job. Later jobs reuse the node's
	// standing graph, peer connections, and GMW sessions.
	Topo TopologyWire
	// Inputs are the owner inputs of every vertex the receiving node acts
	// as owner of — its own vertex, plus any it adopted in an earlier
	// re-blocking — keyed by vertex index. They are resent on every job so
	// a regulator can re-query after owners update their books. The
	// coordinator is the experiment driver and already holds every owner's
	// inputs (see the package comment), so handing a dead owner's inputs to
	// its replacement adds no new trust exposure.
	Inputs map[int]vertex.OwnerInput
	// Directory maps node id → data-plane address for every participant.
	Directory map[network.NodeID]string
	Setup     trustedparty.WireSetup
	// Iterations triggers the run: compute/communicate steps followed by
	// the final computation step and aggregation. Cfg.Epsilon carries the
	// query's privacy budget.
	Iterations int
	// Seq is the session-wide query sequence number (1-based). It is the
	// query id: every data-plane tag of this job lives under the
	// "q/<Seq>" namespace, nodes key their per-query protocol state by
	// it, and it routes the matching doneMsg back to the Run that sent
	// the job — so jobs may overlap on one standing fleet.
	Seq int
	// Attempt is 1 on every coordinator-dispatched job. Resumed runs after
	// a recovery are re-spawned node-side with the attempt carried by the
	// recoverMsg; the field exists on the wire so doneMsg can echo it.
	Attempt int
	// Recover opts the node into the failure-recovery plane: exchange the
	// fleet recovery key at engine bootstrap, archive and ship encrypted
	// share snapshots at every phase barrier, and survive run failures
	// (report them on doneMsg without poisoning the standing daemon).
	Recover bool
}

// ckptMsg ships one node's encrypted share snapshot for one phase barrier
// of one query. The coordinator stores the blob (it holds no recovery key,
// so the blob is opaque to it) and hands the dead node's latest blob to the
// replacement on recovery.
type ckptMsg struct {
	Seq     int
	Attempt int
	// Barrier b is the start of iteration b: 0 after initialization,
	// b ≥ 1 after communicate(b−1).
	Barrier int
	Blob    []byte
}

// resumeSpec tells a node to resume one in-flight query from a barrier.
// It carries a full per-node job message (rebuilt by the coordinator, which
// is the dispatcher) so even a node that never received the original
// dispatch — a query can die mid-dispatch — can run the resumed attempt.
type resumeSpec struct {
	Seq     int
	Attempt int
	// Barrier is the resume point; −1 means no common checkpoint exists
	// and the query restarts from initialization (under attempt tags).
	Barrier int
	Job     jobMsg
}

// recoverMsg announces a re-blocking: node Dead is gone, node Repl takes
// its owner slot, Setup is the TP's re-signed assignment with re-issued
// certificates, and Resumes lists the in-flight queries to resume (their
// jobs carry the adopted vertices' owner inputs). The replacement
// additionally receives the dead registrant's neighbor keys and the dead
// node's latest checkpoint blobs (decryptable with the fleet recovery key
// the coordinator never held). It is vertex.Recovery on the wire.
type recoverMsg struct {
	// Epoch counts re-blockings on this session, starting at 1.
	Epoch int
	Dead  network.NodeID
	Repl  network.NodeID
	Setup trustedparty.WireSetup
	// AdoptedKeys maps vertex → the registered owner's neighbor keys
	// (big-endian big.Int bytes, one per out-edge slot); sent to the
	// replacement only. The adjuster role for edges into an adopted vertex
	// needs the ORIGINAL registrant's keys — the re-issued certificates
	// were randomized under them.
	AdoptedKeys map[int][][]byte
	// DeadBlobs maps seq → the dead node's checkpoint blob at exactly that
	// query's resume barrier; sent to the replacement only.
	DeadBlobs map[int][]byte
	Resumes   []resumeSpec
}

type doneMsg struct {
	ID network.NodeID
	// Seq echoes jobMsg.Seq: with overlapping queries in flight, the
	// coordinator routes each report to its query by this field, not by
	// arrival order.
	Seq int
	// Attempt echoes the run's attempt number (1 for a fresh dispatch,
	// bumped per re-blocking). The coordinator discards reports from
	// superseded attempts.
	Attempt int
	Err     string
	// Row is the node's row of the query's outcome — its phase table and
	// traffic, plus the opened (noised) aggregate on aggregation-block
	// members — exactly as its engine returned it; zero when Err is set.
	Row vertex.NodeResult
	// Spans is the node's per-job span table (phase, per-iteration,
	// per-block) with offsets relative to the node's own job start;
	// Counters its protocol counters (gmw/*, ot/*, net/<prefix>/*). Both
	// ride the control plane only after the query finishes, so shipping
	// them costs no data-plane time.
	Spans    []obs.Span
	Counters map[string]int64
	// Epoch is the node's trace epoch (job start) as Unix nanoseconds on
	// the node's own clock. Combined with the health plane's estimated
	// clock offset it lets the coordinator rebase Spans onto its own
	// timeline when merging.
	Epoch int64
	// LastPhase is the last phase the job reported entering — on a failed
	// job, where the protocol died.
	LastPhase string
	// Flight is the node's flight-recorder tail, shipped only on failure
	// so the error path can show the final seconds of protocol activity.
	Flight []obs.FlightEvent
}
