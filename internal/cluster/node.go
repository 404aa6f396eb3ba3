package cluster

import (
	"context"
	"encoding/gob"
	"fmt"
	"log/slog"
	"math/big"
	"net"
	"runtime"
	"sort"
	"sync"
	"time"

	"dstress/internal/gmw"
	"dstress/internal/group"
	"dstress/internal/network"
	"dstress/internal/obs"
	"dstress/internal/ot"
	"dstress/internal/tcpnet"
	"dstress/internal/trustedparty"
	"dstress/internal/vertex"
)

// NodeOptions configure one node daemon.
type NodeOptions struct {
	// ID is this node's identity; node i owns vertex i-1.
	ID network.NodeID
	// CoordAddr is the coordinator's control-plane address.
	CoordAddr string
	// ListenAddr is the data-plane listen address ("127.0.0.1:0" picks an
	// ephemeral loopback port).
	ListenAddr string
	// AdvertiseAddr, when set, is the address peers dial instead of the
	// literal listen address (NAT / container setups).
	AdvertiseAddr string
	// Chaos, when set, injects one deterministic fault: see NodeChaos.
	Chaos *NodeChaos
}

// NodeChaos is the deterministic fault-injection harness the node hands to
// every job it runs; see vertex.Chaos.
type NodeChaos = vertex.Chaos

// runHandle tracks one in-flight run so a recovery can cancel and
// supersede it: a superseded run's exit is swallowed entirely — no done
// report, no fatal error — because a fresh attempt replaces it.
type runHandle struct {
	cancel     context.CancelFunc
	done       chan struct{}
	attempt    int
	superseded bool
}

// jobProgress is a node's live position in one in-flight job: the last
// phase entered and a monotone advance counter the stall watchdog keys on.
type jobProgress struct {
	phase string
	steps int64
}

// RunNode executes one participant as a daemon on tcpnet: listen on the
// data plane, dial the coordinator, then serve the standing session — run
// every role node ID plays in each dispatched query, report back, and wait
// for the next job — until the coordinator sends a shutdown, the control
// connection dies, or ctx is canceled. It returns the last completed
// query's result.
func RunNode(ctx context.Context, opt NodeOptions) (*vertex.NodeResult, error) {
	if opt.ID < 1 {
		return nil, fmt.Errorf("cluster: node id %d must be ≥ 1", opt.ID)
	}
	peer, err := tcpnet.Listen(opt.ID, opt.ListenAddr)
	if err != nil {
		return nil, err
	}
	defer peer.Close()

	conn, err := dialRetry(ctx, opt.CoordAddr)
	if err != nil {
		return nil, fmt.Errorf("cluster: dialing coordinator %s: %w", opt.CoordAddr, err)
	}
	adv := opt.AdvertiseAddr
	if adv == "" {
		adv = peer.Addr()
	}
	return nodeShell{
		id: opt.ID, dataAddr: adv, chaos: opt.Chaos,
		// Everything in the setup arrived from outside the process, so the
		// engine is built from verified bytes and the peer directory.
		engine: func(grp group.Group, pm paramsMsg, sm setupMsg, secrets trustedparty.NodeSecrets) (*vertex.Deployment, *vertex.Engine, error) {
			dep, setup, err := nodeDeployment(grp, pm, sm)
			if err != nil {
				return nil, nil, fmt.Errorf("cluster: node %d: %w", opt.ID, err)
			}
			eng, err := vertex.NewEngine(dep, setup, secrets, peer, gmw.SubstrateOT{Sub: ot.NewSubstrate(grp, peer)})
			if err != nil {
				return nil, nil, err
			}
			for id, addr := range sm.Directory {
				if id != opt.ID {
					peer.Register(id, addr)
				}
			}
			// Self-delivery (a node can be relay and block member at once)
			// goes through the peer's own listener like any other traffic —
			// dialed at the local listen address, never the advertised one,
			// which may not be reachable from inside a NAT.
			peer.Register(opt.ID, selfDialAddr(peer.Addr()))
			return dep, eng, nil
		},
		recovery: parseRecovery,
		// Closing the data plane releases writes; reads are ctx-aware.
		release: func() { peer.Close() },
	}.serve(ctx, conn)
}

// nodeShell is what differs between the two ways a node is started: a
// daemon (RunNode) builds its engine on tcpnet from the verified bytes of
// its setup, a node of an in-process fleet (OpenHub) on the hub from its
// driver's own parts. Everything else is serve, and both run it.
type nodeShell struct {
	id network.NodeID
	// dataAddr is the data-plane address peers dial ("" on the hub).
	dataAddr string
	chaos    *NodeChaos
	// engine builds the node's engine from the parameters it registered
	// under and the session's setup. own is the deployment the node holds
	// alone, or nil when it shares its driver's — whose certificate uses the
	// driver then announces.
	engine func(grp group.Group, pm paramsMsg, sm setupMsg, secrets trustedparty.NodeSecrets) (own *vertex.Deployment, e *vertex.Engine, err error)
	// recovery turns a recovery announcement into the engine's
	// instructions.
	recovery func(grp group.Group, rm recoverMsg) (*vertex.Recovery, error)
	// release, when set, unblocks the data plane once the node stops.
	release func()
}

// serve registers the node over its control connection and serves the
// standing session on it; it owns conn and closes it on return.
func (sh nodeShell) serve(ctx context.Context, conn net.Conn) (*vertex.NodeResult, error) {
	defer conn.Close()
	// ctlCtx governs everything this node does: it ends when the caller
	// cancels, when the control connection dies, or when serve returns.
	ctlCtx, ctlCancel := context.WithCancel(ctx)
	defer ctlCancel()
	// On cancellation, close the control connection (releases blocked gob
	// decodes — the registration handshake included) and the data plane.
	stop := context.AfterFunc(ctlCtx, func() {
		conn.Close()
		if sh.release != nil {
			sh.release()
		}
	})
	defer stop()
	if c := sh.chaos; c != nil {
		// A dying process drops its connections before anything else: the
		// killed run must get no failure report out, and the node must
		// answer no further heartbeat.
		sh.chaos = &NodeChaos{Barrier: c.Barrier, Kill: func() {
			conn.Close()
			c.Kill()
		}}
	}
	enc := gob.NewEncoder(conn)
	dec := gob.NewDecoder(conn)

	if err := enc.Encode(helloMsg{ID: sh.id, DataAddr: sh.dataAddr}); err != nil {
		return nil, fmt.Errorf("cluster: hello: %w", err)
	}
	var pm paramsMsg
	if err := dec.Decode(&pm); err != nil {
		return nil, fmt.Errorf("cluster: reading params: %w", err)
	}
	grp, err := group.ByName(pm.Group)
	if err != nil {
		return nil, err
	}
	tpParams := trustedparty.Params{Group: grp, K: pm.K, D: pm.D, L: pm.L}
	reg, secrets, err := trustedparty.RegisterNode(tpParams, sh.id)
	if err != nil {
		return nil, err
	}
	if err := enc.Encode(regMsg{Reg: trustedparty.MarshalRegistration(grp, reg)}); err != nil {
		return nil, fmt.Errorf("cluster: sending registration: %w", err)
	}
	// The deployment arrives once, before any job: the engine is built from
	// it before anything else is read, so every job finds it standing.
	var sm setupMsg
	if err := dec.Decode(&sm); err != nil {
		return nil, fmt.Errorf("cluster: reading setup: %w", err)
	}
	own, eng, err := sh.engine(grp, pm, sm, secrets)
	if err != nil {
		return nil, err
	}
	// encMu serializes control-plane encodes (done reports, checkpoints and
	// heartbeat replies) on the shared connection.
	var encMu sync.Mutex
	send := func(m nodeMsg) error {
		encMu.Lock()
		defer encMu.Unlock()
		return enc.Encode(m)
	}
	eng.ShipCheckpoint = func(seq, attempt, barrier int, blob []byte) {
		c := ckptMsg{Seq: seq, Attempt: attempt, Barrier: barrier, Blob: blob}
		if err := send(nodeMsg{Ckpt: &c}); err != nil {
			slog.Warn("cluster checkpoint ship failed",
				"node", sh.id, "query", seq, "barrier", barrier, "error", err)
		}
	}

	// Jobs overlap: each runs in its own goroutine against per-query state
	// (the engine keys share registers and GMW sessions by job.Seq), while
	// the engine itself — substrate, setup, and the deployment state it was
	// built on — stands for the whole session. Any job failure is fatal for
	// the node (fail-stop). The health-plane state — live trace map,
	// per-job progress, the flight-recorder ring every job's trace feeds —
	// is declared before the decoder goroutine because heartbeats read it.
	flight := obs.NewFlight(0)
	var (
		inflight   sync.WaitGroup
		stateMu    sync.Mutex
		last       *vertex.NodeResult
		fatalErr   error
		liveTraces = make(map[int]*obs.Trace)
		progress   = make(map[int]*jobProgress)
		runs       = make(map[int]*runHandle)
	)
	buildBeat := func(t1 int64) *beatMsg {
		t2 := time.Now().UnixNano()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		b := &beatMsg{
			ID: sh.id, T1: t1, T2: t2,
			Goroutines: runtime.NumGoroutine(),
			HeapBytes:  ms.HeapAlloc,
			GCPauseNS:  ms.PauseTotalNs,
			Handshakes: eng.Handshakes(),
			Flight:     flight.DrainNew(),
		}
		stateMu.Lock()
		for seq, p := range progress {
			b.Progress = append(b.Progress, queryProgress{Seq: seq, Phase: p.phase, Steps: p.steps})
		}
		for _, tr := range liveTraces {
			b.Open = append(b.Open, tr.Live()...)
		}
		stateMu.Unlock()
		sort.Slice(b.Progress, func(i, j int) bool { return b.Progress[i].Seq < b.Progress[j].Seq })
		b.T3 = time.Now().UnixNano()
		return b
	}

	// The decoder goroutine owns the control connection's read side,
	// answering heartbeat pings inline and handing jobs to the main loop.
	// When it fails — the coordinator closed the connection, which it does
	// as soon as any node reports a failure — it cancels ctlCtx, which
	// aborts any in-flight query and releases every blocked data-plane
	// Recv, so this daemon fails fast even when a dead peer never dialed us
	// (tcpnet's per-sender release covers only established inbound
	// connections).
	ctlCh := make(chan ctrlMsg)
	go func() {
		defer close(ctlCh)
		for {
			var m ctrlMsg
			if err := dec.Decode(&m); err != nil {
				ctlCancel()
				return
			}
			if m.Ping != nil {
				if err := send(nodeMsg{Beat: buildBeat(m.Ping.T1)}); err != nil {
					ctlCancel()
					return
				}
				continue
			}
			if m.Job == nil && m.Recover == nil {
				continue
			}
			select {
			case ctlCh <- m:
			case <-ctlCtx.Done():
				return
			}
		}
	}()

	setFatal := func(err error) {
		stateMu.Lock()
		if fatalErr == nil {
			fatalErr = err
		}
		stateMu.Unlock()
		ctlCancel()
	}
	// runOne runs one attempt of a job from barrier fromBarrier (−1 runs
	// from initialization).
	runOne := func(runCtx context.Context, h *runHandle, job jobMsg, fromBarrier int) {
		defer inflight.Done()
		defer h.cancel()
		defer close(h.done)
		// Nodes always record: a per-job trace is a few hundred spans and
		// ships over the control plane only after the query, so the data
		// plane never pays for it. The coordinator decides what to do with
		// the tables (straggler attribution, -trace export). While the job
		// runs, the trace is also live: heartbeats snapshot its open spans,
		// and the attached flight recorder retains the recent event tail
		// for the failure path.
		trace := obs.NewTrace(int32(sh.id))
		trace.AttachFlight(flight)
		qtag := network.Tag("q", job.Seq)
		trace.SetQuery(qtag)
		// "dispatched" counts as the first step: a node that dies during
		// engine setup — before the protocol's first ReportProgress — still
		// ships a phase the post-mortem can name, instead of an empty one.
		prog := &jobProgress{phase: "dispatched", steps: 1}
		stateMu.Lock()
		liveTraces[job.Seq] = trace
		progress[job.Seq] = prog
		stateMu.Unlock()
		flight.Record(obs.FlightEvent{
			At: time.Now().UnixNano(), Kind: "phase", Name: "dispatched",
			Query: qtag, Node: int32(sh.id),
		})
		jobCtx := obs.With(runCtx, trace)
		jobCtx = obs.WithProgress(jobCtx, func(phase string) {
			stateMu.Lock()
			prog.phase = phase
			prog.steps++
			stateMu.Unlock()
			// A phase entry is protocol activity in its own right: spans
			// only reach the ring when they end, so a node killed deep
			// inside one long phase would otherwise leave an empty ring.
			flight.Record(obs.FlightEvent{
				At: time.Now().UnixNano(), Kind: "phase", Name: phase,
				Query: qtag, Node: int32(sh.id),
			})
		})
		slog.Debug("cluster job received",
			"node", sh.id, "query", job.Seq, "attempt", job.Attempt, "iterations", job.Iterations)
		if own != nil {
			// A node holding its deployment alone is a single sender, so
			// each certificate key it caches is used once per iteration.
			own.ExpectCertUses(job.Iterations)
		}
		res, runErr := eng.Run(jobCtx, vertex.Job{
			Seq: job.Seq, Attempt: job.Attempt, FromBarrier: fromBarrier,
			Iterations: job.Iterations, Epsilon: job.Epsilon,
			Inputs: job.Inputs, Chaos: sh.chaos,
		})
		if runErr != nil {
			res = &vertex.NodeResult{}
		}
		stateMu.Lock()
		lastPhase := prog.phase
		delete(liveTraces, job.Seq)
		delete(progress, job.Seq)
		if runs[job.Seq] == h {
			delete(runs, job.Seq)
		}
		superseded := h.superseded
		stateMu.Unlock()
		if superseded {
			// A recovery canceled this attempt; a resumed attempt replaces
			// it, so neither its error nor a report reaches the coordinator.
			slog.Debug("cluster job superseded by recovery",
				"node", sh.id, "query", job.Seq, "attempt", job.Attempt)
			return
		}
		done := doneMsg{
			ID: sh.id, Seq: job.Seq, Attempt: job.Attempt, Row: *res,
			Spans: trace.Spans(), Counters: trace.Counters(),
			Epoch: trace.Epoch().UnixNano(), LastPhase: lastPhase,
		}
		if runErr != nil {
			done.Err = runErr.Error()
			done.Flight = flight.Events()
			slog.Error("cluster job failed", "node", sh.id, "query", job.Seq, "error", runErr)
		} else {
			args := []any{"node", sh.id, "query", job.Seq, "bytes_sent", res.Stats.BytesSent}
			for _, ph := range res.Phases() {
				args = append(args, ph.Key+"_ms", ph.Time.Milliseconds())
			}
			slog.Debug("cluster job done", args...)
		}
		encErr := send(nodeMsg{Done: &done})
		if encErr != nil && runErr == nil {
			runErr = fmt.Errorf("cluster: reporting result: %w", encErr)
		}
		if runErr != nil {
			// With recovery on, one run's failure is not daemon-fatal: the
			// error rode the done report, and the coordinator decides
			// whether to re-block and resume or abort the session. Without
			// it (or when even the report could not be sent) the daemon
			// fail-stops as before.
			if !sm.Recover || encErr != nil {
				setFatal(runErr)
			}
			return
		}
		stateMu.Lock()
		last = res
		stateMu.Unlock()
	}
	// start registers a run's handle before its goroutine exists, so a
	// recovery announced right behind the job on the control connection
	// always finds — and supersedes — the attempt it replaces.
	start := func(job jobMsg, fromBarrier int) {
		runCtx, cancel := context.WithCancel(ctlCtx)
		h := &runHandle{cancel: cancel, done: make(chan struct{}), attempt: job.Attempt}
		stateMu.Lock()
		runs[job.Seq] = h
		stateMu.Unlock()
		inflight.Add(1)
		go runOne(runCtx, h, job, fromBarrier)
	}
	handleRecover := func(rm recoverMsg) error {
		stateMu.Lock()
		var waits []*runHandle
		for _, r := range rm.Resumes {
			if h := runs[r.Job.Seq]; h != nil && h.attempt < r.Job.Attempt {
				h.superseded = true
				h.cancel()
				waits = append(waits, h)
			}
		}
		stateMu.Unlock()
		// Superseded attempts must fully unwind before the engine's
		// setup-derived state is swapped under them.
		for _, h := range waits {
			<-h.done
		}
		flight.Record(obs.FlightEvent{
			At: time.Now().UnixNano(), Kind: "recover",
			Name: fmt.Sprintf("reblock epoch=%d dead=%d repl=%d", rm.Epoch, rm.Dead, rm.Repl),
			Node: int32(sh.id),
		})
		rec, err := sh.recovery(grp, rm)
		if err == nil {
			err = eng.ApplyRecovery(rec)
		}
		if err != nil {
			return fmt.Errorf("cluster: node %d applying reblock: %w", sh.id, err)
		}
		for _, r := range rm.Resumes {
			slog.Info("cluster resuming query after reblock",
				"node", sh.id, "query", r.Job.Seq, "attempt", r.Job.Attempt, "barrier", r.Barrier)
			start(r.Job, r.Barrier)
		}
		return nil
	}
	for m := range ctlCh {
		if m.Recover != nil {
			if err := handleRecover(*m.Recover); err != nil {
				setFatal(err)
			}
			continue
		}
		job := *m.Job
		if job.Shutdown {
			slog.Debug("cluster node shutting down", "node", sh.id)
			inflight.Wait()
			stateMu.Lock()
			res, err := last, fatalErr
			stateMu.Unlock()
			return res, err
		}
		start(job, -1)
	}
	// The job channel closed without a shutdown message: the control plane
	// is gone (coordinator abort, node failure elsewhere, caller
	// cancellation, or a failed job of our own).
	inflight.Wait()
	stateMu.Lock()
	res, ferr := last, fatalErr
	stateMu.Unlock()
	if ferr != nil {
		return nil, ferr
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	return res, fmt.Errorf("cluster: node %d: control connection to coordinator lost", sh.id)
}

// selfDialAddr rewrites an unspecified listen host (0.0.0.0 / ::) to
// loopback so a node can dial its own listener.
func selfDialAddr(listenAddr string) string {
	host, port, err := net.SplitHostPort(listenAddr)
	if err != nil {
		return listenAddr
	}
	if ip := net.ParseIP(host); host == "" || (ip != nil && ip.IsUnspecified()) {
		return net.JoinHostPort("127.0.0.1", port)
	}
	return listenAddr
}

// dialRetry dials addr with exponential backoff: a fleet launcher routinely
// starts node processes before the coordinator's listener is up, so early
// refusals are retried — quickly at first (a coordinator racing us up is
// ready within milliseconds), backing off to 1s between attempts. The
// retry window is capped by ctx's deadline; when ctx has none, ten seconds
// bound it.
func dialRetry(ctx context.Context, addr string) (net.Conn, error) {
	if _, has := ctx.Deadline(); !has {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
	}
	var d net.Dialer
	backoff := 25 * time.Millisecond
	for {
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err == nil {
			return conn, nil
		}
		timer := time.NewTimer(backoff)
		select {
		case <-ctx.Done():
			timer.Stop()
			return nil, err
		case <-timer.C:
		}
		if backoff *= 2; backoff > time.Second {
			backoff = time.Second
		}
	}
}

// SetupMismatchError reports a setup whose program does not compile to the
// message width L of the system parameters the node registered under
// (§3.4 step 1): the trusted party sized the registration for L-bit
// messages, so an engine built from the spec would not run the protocol the
// rest of the fleet runs.
type SetupMismatchError struct {
	L       int // registered message width
	MsgBits int // message width the spec compiled to
}

func (e *SetupMismatchError) Error() string {
	return fmt.Sprintf("cluster: setup's program has %d-bit messages, but the node registered under L = %d", e.MsgBits, e.L)
}

// nodeDeployment is a daemon's whole build before any transport is touched:
// the deployment, from the parameters it registered under and the setup
// that followed. Everything on those messages arrived from outside the
// process, so this is where it is checked: the compiled program must match
// the registration, the topology is rebuilt edge by edge, and the trusted
// party's signatures over the assignment and over every block certificate
// are verified before any engine sees the setup.
func nodeDeployment(grp group.Group, pm paramsMsg, sm setupMsg) (*vertex.Deployment, *trustedparty.SetupResult, error) {
	prog, err := sm.Prog.Build()
	if err != nil {
		return nil, nil, err
	}
	if prog.MsgBits != pm.L {
		return nil, nil, &SetupMismatchError{L: pm.L, MsgBits: prog.MsgBits}
	}
	// α sizes the lookup table the deployment builds: refuse one too large
	// before the graph, the setup or the table is allocated.
	cfg := Config{Group: grp, K: pm.K, Alpha: sm.Alpha, AggFanIn: sm.AggFanIn, Recover: sm.Recover}
	if _, err := cfg.engineConfig().TransferParams(prog.MsgBits); err != nil {
		return nil, nil, err
	}
	g := vertex.NewGraph(len(sm.Out), pm.D)
	for u, outs := range sm.Out {
		for _, v := range outs {
			if err := g.AddEdge(u, v); err != nil {
				return nil, nil, err
			}
		}
	}
	setup, err := verifiedSetup(grp, sm.Setup)
	if err != nil {
		return nil, nil, err
	}
	dep, err := vertex.NewDeployment(cfg.engineConfig(), prog, g)
	if err != nil {
		return nil, nil, err
	}
	return dep, setup, nil
}

// verifiedSetup parses a trusted-party publication off the wire and checks
// the signature over the assignment and over every block certificate:
// transfers encrypt subshares under those keys, so a tampered certificate
// would hand the ciphertexts to an attacker (§3.4 signs both artifacts;
// check both).
func verifiedSetup(grp group.Group, w trustedparty.WireSetup) (*trustedparty.SetupResult, error) {
	setup, err := trustedparty.UnmarshalSetup(grp, w)
	if err != nil {
		return nil, err
	}
	if !trustedparty.VerifyAssignment(setup.VerifyKey, setup.Assignment) {
		return nil, fmt.Errorf("trusted-party assignment signature invalid")
	}
	for certNode, certs := range setup.Certs {
		for j, c := range certs {
			if !trustedparty.VerifyCert(setup.VerifyKey, grp, c) {
				return nil, fmt.Errorf("certificate %d of node %d has an invalid signature", j, certNode)
			}
		}
	}
	return setup, nil
}

// parseRecovery turns a recoverMsg into the engine's instructions,
// verifying the re-signed setup it carries.
func parseRecovery(grp group.Group, rm recoverMsg) (*vertex.Recovery, error) {
	setup, err := verifiedSetup(grp, rm.Setup)
	if err != nil {
		return nil, err
	}
	rec := &vertex.Recovery{Dead: rm.Dead, Repl: rm.Repl, Setup: setup, DeadBlobs: rm.DeadBlobs}
	if len(rm.AdoptedKeys) > 0 {
		rec.AdoptedKeys = make(map[int][]*big.Int, len(rm.AdoptedKeys))
		for v, raw := range rm.AdoptedKeys {
			nks := make([]*big.Int, len(raw))
			for j, kb := range raw {
				nks[j] = new(big.Int).SetBytes(kb)
			}
			rec.AdoptedKeys[v] = nks
		}
	}
	return rec, nil
}
