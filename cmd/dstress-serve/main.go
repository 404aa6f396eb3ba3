// dstress-serve is the DStress query service daemon: a standing pool of
// deployments over a synthetic banking network, answering budget-checked
// queries over JSON-HTTP. It is the serving layer of the paper's
// deployment story (§4.5): tenants (regulators) pose a few ε-charged
// queries per year against a long-lived distributed graph; each standing
// fleet multiplexes -concurrent queries at once (every query gets its own
// "q/<id>" tag namespace, so their protocol messages cannot collide), and
// the pool scales out across fleets.
//
//	dstress-serve -listen 127.0.0.1:8080 -n 8 -k 1 -d 3 -pool 2 -concurrent 2
//
//	curl -s localhost:8080/v1/queries -d '{"tenant":"fed","epsilon":0.23}'
//	curl -s localhost:8080/v1/tenants/fed/budget
//	curl -s -X POST localhost:8080/v1/tenants/fed/replenish
//	curl -s localhost:8080/metrics
//
// SIGINT/SIGTERM drains gracefully: new submissions are refused, in-flight
// and admitted queries finish, every pooled session is closed; a second
// signal (or -drain-timeout) aborts the in-flight protocol runs instead.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	_ "net/http/pprof" // registered on the DefaultServeMux the -pprof server uses
	"os"
	"os/signal"
	"syscall"
	"time"

	"dstress"
	"dstress/internal/cluster"
	"dstress/internal/group"
	"dstress/internal/serve"
)

func main() {
	var (
		listen       = flag.String("listen", "127.0.0.1:8080", "HTTP listen address")
		pool         = flag.Int("pool", 2, "maximum standing deployments (pool cap)")
		concurrent   = flag.Int("concurrent", 1, "queries multiplexed concurrently on each standing deployment (query-id multiplexing; 1 = classic one-query-per-fleet)")
		warm         = flag.Int("warm", 1, "deployments opened at boot; the rest grow lazily under load")
		queue        = flag.Int("queue", 64, "admitted-query queue depth (backpressure beyond it)")
		tenantBudget = flag.Float64("tenant-budget", math.Ln2, "annual ε budget granted to each new tenant (§4.5; 0 refuses unknown tenants)")
		drainTimeout = flag.Duration("drain-timeout", 2*time.Minute, "how long a drain waits for in-flight queries before aborting them")

		// Scenario flags, mirroring dstress-run.
		model     = flag.String("model", "en", "risk model: en (Eisenberg-Noe) or egj (Elliott-Golub-Jackson)")
		n         = flag.Int("n", 8, "number of banks")
		core      = flag.Int("core", 3, "core size of the core-periphery topology")
		d         = flag.Int("d", 3, "public degree bound D")
		k         = flag.Int("k", 1, "collusion bound k (blocks of k+1)")
		iters     = flag.Int("iters", 0, "default iterations per query (0 = log2 N)")
		shock     = flag.Int("shock", 1, "number of core banks whose reserves are wiped")
		epsilon   = flag.Float64("epsilon", 0.23, "default per-query ε when a submission does not set one")
		alpha     = flag.Float64("alpha", 0.9, "transfer-noise parameter in [0,1)")
		groupName = flag.String("group", "modp256", "crypto group: p256, p384, modp256")
		aggFanIn  = flag.Int("aggfanin", 0, "aggregation-tree fan-in (0 = flat aggregation)")
		seed      = flag.Int64("seed", 42, "synthetic network seed")
		transport = flag.String("transport", "sim", "deployment backend per pool member: sim or tcp (loopback cluster)")

		heartbeat   = flag.Duration("heartbeat", 0, "fleet heartbeat interval (0 = 1s default)")
		stallWindow = flag.Duration("stall-window", 0, "flag an in-flight query as stalled after this long without phase progress (0 = 30s default)")
		recoverOn   = flag.Bool("recover", false, "enable failure recovery on pool deployments: checkpoint shares at phase barriers, re-block around dead nodes and resume queries instead of failing them")

		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060; empty = off — kept off the API port)")
		logLevel  = flag.String("log-level", "info", "log verbosity: debug, info, warn, error")
	)
	flag.Parse()

	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "invalid -log-level %q (want debug, info, warn, or error)\n", *logLevel)
		os.Exit(2)
	}
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl})))
	fatal := func(msg string, args ...any) {
		slog.Error(msg, args...)
		os.Exit(1)
	}
	if *pprofAddr != "" {
		go func() {
			slog.Info("pprof listening", "addr", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				slog.Error("pprof server failed", "err", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	sc, exactTDS, err := cluster.BuildSynthetic(cluster.SyntheticOptions{
		Model: *model, N: *n, Core: *core, D: *d, K: *k,
		Iterations: *iters, Shock: *shock, Epsilon: *epsilon, Alpha: *alpha,
		Group: *groupName, Seed: *seed, AggFanIn: *aggFanIn,
	})
	if err != nil {
		fatal("building scenario", "err", err)
	}
	g, err := group.ByName(sc.Cfg.Group)
	if err != nil {
		fatal("resolving group", "err", err)
	}
	job := dstress.Job{
		Spec: &sc.Prog, Graph: sc.Graph, Iterations: sc.Iterations, Epsilon: *epsilon,
		Decode: func(raw int64) float64 { return cluster.DecodeDollars(sc, raw) },
	}
	econf := dstress.EngineConfig{
		Group: g, K: *k, Alpha: *alpha, AggFanIn: *aggFanIn,
		HeartbeatInterval: *heartbeat, StallWindow: *stallWindow,
		Recover: *recoverOn,
	}
	var eng dstress.SessionEngine
	switch *transport {
	case "sim":
		eng = dstress.NewSimEngine(econf)
	case "tcp":
		eng = dstress.NewClusterEngine(econf)
	default:
		fatal("unknown -transport (want sim or tcp)", "transport", *transport)
	}

	slog.Info("warming deployments", "warm", *warm, "pool", *pool, "transport", *transport,
		"model", *model, "n", *n, "d", *d, "k", *k, "iterations", sc.Iterations,
		"group", g.Name(), "alpha", *alpha, "exact_tds_musd", exactTDS/1e6)
	svc, err := serve.New(ctx, serve.Config{
		Open: func(ctx context.Context) (serve.QueryRunner, error) {
			sess, err := eng.Open(ctx, job, 0) // tenant budgets are enforced by the service ledger
			if err != nil {
				return nil, err
			}
			sess.SetMaxConcurrent(*concurrent)
			return sess, nil
		},
		PoolCap: *pool, SessionConcurrency: *concurrent, Warm: *warm, QueueDepth: *queue,
		DefaultBudget:     *tenantBudget,
		DefaultIterations: sc.Iterations,
		DefaultEpsilon:    *epsilon,
		Logf:              func(format string, args ...any) { slog.Info(fmt.Sprintf(format, args...)) },
	})
	if err != nil {
		fatal("starting service", "err", err)
	}

	srv := &http.Server{Addr: *listen, Handler: serve.NewHandler(svc)}
	httpErr := make(chan error, 1)
	go func() { httpErr <- srv.ListenAndServe() }()
	slog.Info("serving", "addr", *listen, "pool_cap", *pool, "concurrent", *concurrent, "queue", *queue, "tenant_budget", *tenantBudget)

	select {
	case err := <-httpErr:
		fatal("http server failed", "err", err)
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way

	slog.Info("draining", "reason", "signal", "timeout", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- srv.Shutdown(drainCtx) }()
	drainErr := svc.Drain(drainCtx)
	if err := <-shutdownErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		slog.Warn("http shutdown", "err", err)
	}
	m := svc.Metrics()
	slog.Info("drained", "served", m.Served, "failed", m.Failed, "refused", m.Refused, "epsilon_charged", m.EpsilonCharged)
	if drainErr != nil {
		fatal("drain failed", "err", drainErr)
	}
	fmt.Fprintln(os.Stderr, "bye")
}
