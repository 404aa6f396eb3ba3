package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"dstress"
	"dstress/internal/dp"
	"dstress/internal/serve"
)

// workload is one named set of inputs plus the way the system is driven
// with them. All workloads are closed loops generated from this process.
type workload struct {
	Name string
	// Why records the reason the workload exists: which layers it loads
	// and which it leaves idle.
	Why string

	engine  string // "sim", "tcp", or "mux" (sim behind serve.Service)
	program string // "en" or "deg"
	group   func() dstress.Group
	otMode  dstress.OTMode
	recover bool

	n, d, k, iters int
	// edges is the exact edge count of the generated degree-sum graph.
	edges   int
	epsilon float64
	// clients is the number of closed-loop clients (1 = serial).
	clients int
	// setupCycles is how many fresh Open→Close cycles setup_s is the
	// median of (the standing deployment's own open is one of them).
	setupCycles int
}

// The sizes are chosen for a 2-core box and the driver's time cap: every
// EN workload runs the same Job (N=8, D=3, blocks of 3, one iteration),
// so their differences are differences of engine, not of input.
var workloads = []workload{
	{
		Name: "en-sim",
		Why: "Eisenberg-Noe on the in-process hub with dealer OTs: over 85% of the query is GMW AND rounds; " +
			"elgamal/transfer stay small and OT, tcpnet and the control plane do nothing",
		engine: "sim", program: "en", group: dstress.TestGroup, otMode: dstress.OTDealer,
		n: 8, d: 3, k: 2, iters: 1, clients: 1, setupCycles: 10,
	},
	{
		Name: "deg-p256-sim",
		Why: "degree-sum (tiny update circuit) on a 72-edge G(n,M) graph over P-256: over 90% of the query is transfer " +
			"roles, group exponentiation and ElGamal; GMW is a few percent, so it must not move with en-sim",
		engine: "sim", program: "deg", group: dstress.P256, otMode: dstress.OTDealer,
		n: 16, d: 6, k: 2, iters: 3, edges: 72, clients: 1, setupCycles: 10,
	},
	{
		Name: "en-tcp",
		Why: "the same Job as en-sim on a loopback fleet of 8 TCP node engines: adds IKNP extension, tcpnet framing " +
			"and syscalls, the gob control plane, heartbeats; en-tcp minus en-sim is what those layers cost",
		engine: "tcp", program: "en", group: dstress.TestGroup, otMode: dstress.OTIKNP,
		n: 8, d: 3, k: 2, iters: 1, clients: 1, setupCycles: 5,
	},
	{
		Name: "en-mux",
		Why: "en-sim's deployment behind serve.Service, two closed-loop tenants at epsilon 0.23: overlapping queries " +
			"share one fleet's hub and cores, so a lone-query speed-up that takes more of the box costs here",
		engine: "mux", program: "en", group: dstress.TestGroup, otMode: dstress.OTDealer,
		n: 8, d: 3, k: 2, iters: 1, epsilon: 0.23, clients: 2, setupCycles: 10,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// smokeSized shrinks a workload to the plumbing check go test runs: four
// nodes, blocks of two, one iteration.
func smokeSized(w workload) workload {
	w.n, w.d, w.k, w.iters, w.setupCycles = 4, 2, 1, 1, 1
	if w.program == "deg" {
		w.edges = 6
	}
	return w
}

// enSpec is the Eisenberg-Noe program by name, so the sim and the cluster
// engine compile the identical circuits from the identical Job.
var enSpec = dstress.ProgramSpec{Kind: "en", Width: 24, Unit: 1e7, GranularityDollars: 1e7, Leverage: 0.1}

// degreeSumProgram is the vertex program of examples/private_degree_sum:
// every vertex sends 1 on each out-edge and sums what it receives.
func degreeSumProgram() *dstress.Program {
	const w, aggW = 12, 20
	return &dstress.Program{
		Name: "degree-sum", StateBits: w, MsgBits: w, AggBits: aggW,
		Sensitivity: 1,
		PrivBits:    func(D int) int { return 1 },
		BuildUpdate: func(b *dstress.CircuitBuilder, D int, state, priv dstress.Word, msgs []dstress.Word) (dstress.Word, []dstress.Word) {
			acc := b.ConstWord(0, len(state))
			for _, m := range msgs {
				acc = b.Add(acc, m)
			}
			out := make([]dstress.Word, D)
			for d := range out {
				out[d] = b.ConstWord(1, len(state))
			}
			return acc, out
		},
		BuildAggregate: func(b *dstress.CircuitBuilder, states []dstress.Word) dstress.Word {
			acc := b.ConstWord(0, aggW)
			for _, s := range states {
				acc = b.Add(acc, b.ZeroExtend(s, aggW))
			}
			return acc
		},
	}
}

// gnmEdges draws the Erdős–Rényi G(n,M) graph under degree bound d:
// exactly m directed edges, taken in random order from the pairs the bound
// still allows. G(n,M) rather than G(n,p) because the work of a query is
// proportional to the edge count, and the benchmark must do the same work
// on every seed. A draw that runs out of allowed pairs early is redrawn
// from the same generator, so every seed yields a graph.
func gnmEdges(n, d, m int, seed int64) ([][2]int, error) {
	if d > n-1 || m > n*d {
		return nil, fmt.Errorf("bench: no graph of %d edges on %d vertices with degree bound %d", m, n, d)
	}
	rng := rand.New(rand.NewSource(seed))
	pairs := make([][2]int, 0, n*(n-1))
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v {
				pairs = append(pairs, [2]int{u, v})
			}
		}
	}
	for {
		rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
		out, in := make([]int, n), make([]int, n)
		edges := make([][2]int, 0, m)
		for _, p := range pairs {
			if out[p[0]] < d && in[p[1]] < d {
				out[p[0]]++
				in[p[1]]++
				edges = append(edges, p)
				if len(edges) == m {
					return edges, nil
				}
			}
		}
	}
}

// oracle is the correctness check of one workload: the plaintext reference
// of the same circuits, computed once per (program, graph, iterations).
type oracle struct {
	ref int64
	// scale is the Laplace scale of the released noise in raw units
	// (sensitivity/epsilon); 0 when epsilon is 0 and releases are exact.
	scale float64
}

// wrongTailP is the two-sided tail probability beyond which a noised
// release counts as a wrong value.
const wrongTailP = 1e-9

func (o oracle) ok(raw int64) bool {
	if o.scale == 0 {
		return raw == o.ref
	}
	return dp.LaplaceTail(o.scale, math.Abs(float64(raw-o.ref))) >= wrongTailP
}

// buildJob generates the workload's inputs from the seed — topology and
// balance sheets; the protocol's own randomness is crypto/rand and is not
// seedable — and computes the oracle.
func buildJob(w workload, seed int64) (dstress.Job, oracle, error) {
	job := dstress.Job{Iterations: w.iters, Epsilon: w.epsilon}
	var prog *dstress.Program
	switch w.program {
	case "en":
		const core = 2
		top, err := dstress.CorePeriphery(dstress.CorePeripheryParams{N: w.n, Core: core, D: w.d, PeriLink: 1, Seed: seed})
		if err != nil {
			return job, oracle{}, err
		}
		net := dstress.BuildEN(top, dstress.ENParams{
			CoreCash: 60e6, PeriCash: 5e6, CoreSize: core, DebtScale: 30e6, Seed: seed,
		})
		net.ApplyCashShock([]int{0}, 0)
		spec := enSpec
		cfg := dstress.CircuitConfig{Width: spec.Width, Unit: spec.Unit}
		if job.Graph, err = dstress.ENGraph(net, cfg, w.d); err != nil {
			return job, oracle{}, err
		}
		job.Spec, job.Decode = &spec, cfg.Decode
		if prog, err = spec.Build(); err != nil {
			return job, oracle{}, err
		}
	case "deg":
		edges, err := gnmEdges(w.n, w.d, w.edges, seed)
		if err != nil {
			return job, oracle{}, err
		}
		g := dstress.NewGraph(w.n, w.d)
		for _, e := range edges {
			if err := g.AddEdge(e[0], e[1]); err != nil {
				return job, oracle{}, err
			}
		}
		for v := 0; v < w.n; v++ {
			g.Priv[v] = []uint8{0}
		}
		prog = degreeSumProgram()
		job.Graph, job.Program = g, prog
	default:
		return job, oracle{}, fmt.Errorf("bench: unknown program %q", w.program)
	}
	ref, err := dstress.RunReference(prog, job.Graph, w.iters)
	if err != nil {
		return job, oracle{}, err
	}
	orc := oracle{ref: ref}
	if w.epsilon > 0 {
		orc.scale = prog.Sensitivity / w.epsilon
	}
	return job, orc, nil
}

// outcome is what one query returned, as seen by its caller.
type outcome struct {
	raw    int64
	report *dstress.Report
}

// deployment is one standing system under test.
type deployment interface {
	// query runs one query for the given client. A trace on ctx is
	// honoured by session deployments; a service traces (or not) as the
	// context it was opened with says.
	query(ctx context.Context, client int) (outcome, error)
	close(ctx context.Context) error
}

type sessionDeployment struct {
	sess *dstress.Session
	spec dstress.QuerySpec
}

func (d sessionDeployment) query(ctx context.Context, _ int) (outcome, error) {
	res, err := d.sess.Query(ctx, d.spec)
	if err != nil {
		return outcome{}, err
	}
	return outcome{raw: res.Raw, report: res.Report}, nil
}

func (d sessionDeployment) close(context.Context) error { return d.sess.Close() }

type serviceDeployment struct{ svc *serve.Service }

func tenantName(client int) string { return fmt.Sprintf("tenant-%d", client) }

func (d serviceDeployment) query(ctx context.Context, client int) (outcome, error) {
	st, err := d.svc.Do(ctx, serve.Request{Tenant: tenantName(client)})
	if err != nil {
		return outcome{}, err
	}
	if st.State != serve.StateDone || st.Result == nil {
		return outcome{}, fmt.Errorf("bench: query %s finished %s: %s", st.ID, st.State, st.Err)
	}
	return outcome{raw: st.Result.Raw, report: st.Result.Report}, nil
}

func (d serviceDeployment) close(ctx context.Context) error { return d.svc.Drain(ctx) }

func engineConfig(w workload) dstress.EngineConfig {
	return dstress.EngineConfig{
		Group: w.group(), K: w.k, Alpha: 0.5, OTMode: w.otMode, Recover: w.recover,
	}
}

// openDeployment stands the workload's deployment up and returns it with
// the wall time of doing so. A trace on ctx is inherited by a service's
// queries (serve keeps the context's values).
func openDeployment(ctx context.Context, w workload, job dstress.Job) (deployment, time.Duration, error) {
	cfg := engineConfig(w)
	var eng dstress.SessionEngine = dstress.NewSimEngine(cfg)
	if w.engine == "tcp" {
		eng = dstress.NewClusterEngine(cfg)
	}
	start := time.Now()
	if w.engine != "mux" {
		sess, err := eng.Open(ctx, job, 0)
		if err != nil {
			return nil, 0, err
		}
		return sessionDeployment{sess: sess, spec: dstress.QuerySpec{Iterations: w.iters, Epsilon: w.epsilon}}, time.Since(start), nil
	}
	tenants := make(map[string]float64, w.clients)
	for c := 0; c < w.clients; c++ {
		tenants[tenantName(c)] = 1e9 // ample: no query is refused for budget
	}
	svc, err := serve.New(ctx, serve.Config{
		Open: func(ctx context.Context) (serve.QueryRunner, error) {
			sess, err := eng.Open(ctx, job, 0)
			if err != nil {
				return nil, err
			}
			sess.SetMaxConcurrent(w.clients)
			return sess, nil
		},
		PoolCap: 1, SessionConcurrency: w.clients, Warm: 1,
		Tenants:           tenants,
		DefaultIterations: w.iters, DefaultEpsilon: w.epsilon,
		AllowUnnoised: w.epsilon == 0,
		Logf:          func(string, ...any) {},
	})
	if err != nil {
		return nil, 0, err
	}
	return serviceDeployment{svc: svc}, time.Since(start), nil
}
