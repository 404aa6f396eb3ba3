package main

// metricDef names one metric. BENCHMARK.json at the repository root lists
// the same names, units, directions and bounds; bench_test.go checks that
// the two agree.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is how far the median may worsen, as a share of the parent's
	// median, before it counts as a regression. End-to-end metrics only.
	Bound float64
	// Moves says which end-to-end metric this layer metric should move,
	// and on which workload. Per-layer metrics only.
	Moves string
}

var (
	mQueryS      = metricDef{Name: "query_s", Unit: "s", Better: "lower", Bound: 0.15}
	mQueriesPerS = metricDef{Name: "queries_per_s", Unit: "1/s", Better: "higher", Bound: 0.15}
	mSetupS      = metricDef{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25}
	mNodeMB      = metricDef{Name: "node_mb", Unit: "MiB", Better: "lower", Bound: 0.01}
)

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. failed_share is not among them because it must be 0: it is
// the failed/attempted pair of the result line.
var endToEnd = []metricDef{mQueryS, mQueriesPerS, mSetupS, mNodeMB}

// perLayer are the single-layer metrics of the traced pass. A metric that
// does not apply to a workload (cluster.ctrl_s on sim) reads 0 there.
var perLayer = []metricDef{
	{Name: "vertex.phase_init_s", Unit: "s", Better: "lower", Moves: "query_s everywhere"},
	{Name: "vertex.phase_compute_s", Unit: "s", Better: "lower", Moves: "query_s everywhere; >=80% of en-sim"},
	{Name: "vertex.phase_transfer_s", Unit: "s", Better: "lower", Moves: "query_s everywhere; >=90% of deg-p256-sim"},
	{Name: "vertex.phase_agg_s", Unit: "s", Better: "lower", Moves: "query_s everywhere; largest on en-mux (noise circuit)"},
	{Name: "vertex.phase_init_bytes", Unit: "B", Better: "lower", Moves: "node_mb everywhere"},
	{Name: "vertex.phase_compute_bytes", Unit: "B", Better: "lower", Moves: "node_mb on en-*"},
	{Name: "vertex.phase_transfer_bytes", Unit: "B", Better: "lower", Moves: "node_mb on deg-p256-sim"},
	{Name: "vertex.phase_agg_bytes", Unit: "B", Better: "lower", Moves: "node_mb on en-mux"},
	{Name: "vertex.unattributed_share", Unit: "share", Better: "lower", Moves: "query_s: the part of a query no phase accounts for"},

	{Name: "gmw.busy_s", Unit: "s", Better: "lower", Moves: "query_s on en-sim, en-tcp, en-mux; no effect on deg-p256-sim"},
	{Name: "gmw.and_gates", Unit: "count", Better: "lower", Moves: "query_s and node_mb on en-*"},
	{Name: "gmw.and_rounds", Unit: "count", Better: "lower", Moves: "query_s on en-tcp (one round trip each)"},
	{Name: "gmw.ns_per_and", Unit: "ns", Better: "lower", Moves: "query_s on en-sim, en-mux"},
	{Name: "gmw.bytes_per_and", Unit: "B", Better: "lower", Moves: "node_mb on en-*"},

	{Name: "transfer.busy_s", Unit: "s", Better: "lower", Moves: "query_s on deg-p256-sim; <=12% of en-sim"},
	{Name: "transfer.send_busy_s", Unit: "s", Better: "lower", Moves: "query_s on en-tcp (roles are split per node only there)"},
	{Name: "transfer.relay_busy_s", Unit: "s", Better: "lower", Moves: "query_s on en-tcp"},
	{Name: "transfer.adjust_busy_s", Unit: "s", Better: "lower", Moves: "query_s on en-tcp"},
	{Name: "transfer.recv_busy_s", Unit: "s", Better: "lower", Moves: "query_s on en-tcp"},
	{Name: "transfer.ms_per_transfer", Unit: "ms", Better: "lower", Moves: "query_s on deg-p256-sim"},
	{Name: "elgamal.encrypt_us", Unit: "us", Better: "lower", Moves: "query_s on deg-p256-sim"},
	{Name: "elgamal.decrypt_us", Unit: "us", Better: "lower", Moves: "query_s on deg-p256-sim"},
	{Name: "group.exp_us", Unit: "us", Better: "lower", Moves: "query_s on deg-p256-sim; setup_s on en-tcp (base OTs)"},
	{Name: "group.fixedbase_exp_us", Unit: "us", Better: "lower", Moves: "query_s on deg-p256-sim"},

	{Name: "ot.iknp_ns_per_ot", Unit: "ns", Better: "lower", Moves: "query_s on en-tcp only"},
	{Name: "ot.bytes_per_ot", Unit: "B", Better: "lower", Moves: "node_mb on en-tcp only"},
	{Name: "ot.derand_bits", Unit: "count", Better: "lower", Moves: "query_s and node_mb on en-*"},
	{Name: "ot.baseot_ms_per_pair", Unit: "ms", Better: "lower", Moves: "setup_s on en-tcp"},
	{Name: "trustedparty.setup_ms", Unit: "ms", Better: "lower", Moves: "setup_s everywhere"},
	{Name: "circuit.compile_ms", Unit: "ms", Better: "lower", Moves: "setup_s everywhere; largest on en-mux"},

	{Name: "network.ns_per_msg_64b", Unit: "ns", Better: "lower", Moves: "query_s on en-sim, en-mux"},
	{Name: "network.ns_per_msg_64k", Unit: "ns", Better: "lower", Moves: "query_s on en-sim, en-mux"},
	{Name: "tcpnet.us_per_msg_64b", Unit: "us", Better: "lower", Moves: "query_s on en-tcp only"},
	{Name: "tcpnet.us_per_msg_64k", Unit: "us", Better: "lower", Moves: "query_s on en-tcp only"},
	{Name: "tcpnet.mb_per_s", Unit: "MiB/s", Better: "higher", Moves: "query_s on en-tcp only"},
	{Name: "net.msgs_sent", Unit: "count", Better: "lower", Moves: "query_s on en-tcp"},
	{Name: "net.bytes_sent", Unit: "B", Better: "lower", Moves: "node_mb everywhere"},

	{Name: "cluster.ctrl_s", Unit: "s", Better: "lower", Moves: "query_s on en-tcp only"},
	{Name: "serve.admit_us", Unit: "us", Better: "lower", Moves: "queries_per_s on en-mux (predicted negligible)"},
	{Name: "dp.ledger_spend_ns", Unit: "ns", Better: "lower", Moves: "queries_per_s on en-mux (predicted negligible)"},

	{Name: "proc.cpu_s_per_query", Unit: "s", Better: "lower", Moves: "informational: what parallelism trades against en-mux"},
	{Name: "proc.peak_rss_mb", Unit: "MiB", Better: "lower", Moves: "informational"},

	{Name: "delta.iknp_s", Unit: "s", Better: "lower", Moves: "en-sim with IKNP minus en-sim: OT extension"},
	{Name: "delta.tcp_s", Unit: "s", Better: "lower", Moves: "en-tcp minus en-sim with IKNP: tcpnet and cluster"},
	{Name: "delta.checkpoint_s", Unit: "s", Better: "lower", Moves: "en-tcp with Recover minus en-tcp: barrier checkpoints"},
	{Name: "obs.trace_overhead_share", Unit: "share", Better: "lower", Moves: "traced over untraced query_s, minus 1"},
}
