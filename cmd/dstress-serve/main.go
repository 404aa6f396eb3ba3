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

	"dstress/internal/cluster"
	"dstress/internal/group"
	"dstress/internal/serve"
)

func main() {
	build := cluster.SyntheticFlags(flag.CommandLine, cluster.SyntheticOptions{
		Model: "en", N: 8, Core: 3, D: 3, Shock: 1, Seed: 42,
		Scenario: cluster.Scenario{
			Config: cluster.Config{Group: group.ModP256(), K: 1, Alpha: 0.9},
			Job:    cluster.Job{Epsilon: 0.23},
		},
	})
	var (
		listen       = flag.String("listen", "127.0.0.1:8080", "HTTP listen address")
		pool         = flag.Int("pool", 2, "maximum standing deployments (pool cap)")
		concurrent   = flag.Int("concurrent", 1, "queries multiplexed concurrently on each standing deployment (query-id multiplexing; 1 = classic one-query-per-fleet)")
		warm         = flag.Int("warm", 1, "deployments opened at boot; the rest grow lazily under load")
		queue        = flag.Int("queue", 64, "admitted-query queue depth (backpressure beyond it)")
		tenantBudget = flag.Float64("tenant-budget", math.Ln2, "annual ε budget granted to each new tenant (§4.5; 0 refuses unknown tenants)")
		drainTimeout = flag.Duration("drain-timeout", 2*time.Minute, "how long a drain waits for in-flight queries before aborting them")
		transport    = flag.String("transport", "sim", "deployment backend per pool member: sim or tcp (loopback cluster)")

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

	sc, exactTDS, err := build()
	if err != nil {
		fatal("building scenario", "err", err)
	}
	var open func(context.Context, cluster.Scenario) (*cluster.Session, error)
	switch *transport {
	case "sim":
		open = cluster.OpenHub
	case "tcp":
		open = cluster.OpenLoopback
	default:
		fatal("unknown -transport (want sim or tcp)", "transport", *transport)
	}

	slog.Info("warming deployments", "warm", *warm, "pool", *pool, "transport", *transport,
		"model", sc.Spec.Kind, "n", sc.Graph.N(), "d", sc.Graph.D, "k", sc.K, "iterations", sc.Iterations,
		"group", sc.Group.Name(), "alpha", sc.Alpha, "exact_tds_musd", exactTDS/1e6)
	svc, err := serve.New(ctx, serve.Config{
		Open: func(ctx context.Context) (serve.QueryRunner, error) {
			sess, err := open(ctx, sc) // tenant budgets are enforced by the service ledger
			if err != nil {
				return nil, err
			}
			sess.SetMaxConcurrent(*concurrent)
			return sess, nil
		},
		PoolCap: *pool, SessionConcurrency: *concurrent, Warm: *warm, QueueDepth: *queue,
		DefaultBudget:     *tenantBudget,
		DefaultIterations: sc.Iterations,
		DefaultEpsilon:    sc.Epsilon,
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
