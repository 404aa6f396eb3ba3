package cluster

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"dstress/internal/gmw"
	"dstress/internal/group"
	"dstress/internal/network"
	"dstress/internal/ot"
	"dstress/internal/trustedparty"
	"dstress/internal/vertex"
)

// OpenLoopback stands a loopback TCP cluster up: coordinator on an
// ephemeral loopback port, one RunNode goroutine per vertex, registration
// and trusted-party setup completed, every message crossing a real socket.
// The nodes live until Close (or a failed Run).
func OpenLoopback(ctx context.Context, sc Scenario) (*Session, error) {
	co, err := NewCoordinator("127.0.0.1:0", sc)
	if err != nil {
		return nil, err
	}
	return startNodes(ctx, co, func(ctx context.Context, id network.NodeID, chaos *NodeChaos) error {
		_, err := RunNode(ctx, NodeOptions{ID: id, CoordAddr: co.Addr(), ListenAddr: "127.0.0.1:0", Chaos: chaos})
		return err
	})
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

// OpenHub stands a simulated deployment up: its nodes are goroutines on one
// in-memory network hub that speak the gob control protocol over in-memory
// pipes. prog is the compiled program (a closure program needs no Spec);
// the nodes share one vertex.Deployment built from it, and mode picks their
// OT provisioning.
func OpenHub(ctx context.Context, sc Scenario, prog *vertex.Program, mode OTMode) (*Session, error) {
	co, err := newCoordinator(sc, prog)
	if err != nil {
		return nil, err
	}
	if co.hub, err = newHubFleet(co.grp, sc, prog, mode); err != nil {
		return nil, err
	}
	ln := &pipeListener{conns: make(chan net.Conn, sc.Graph.N()), done: make(chan struct{})}
	co.ln = ln
	return startNodes(ctx, co, func(ctx context.Context, id network.NodeID, chaos *NodeChaos) error {
		node, coord := net.Pipe()
		ln.conns <- coord
		_, err := nodeShell{
			id: id, chaos: chaos,
			engine: func(_ group.Group, _ jobMsg, secrets trustedparty.NodeSecrets) (*vertex.Deployment, *vertex.Engine, error) {
				eng, err := co.hub.engine(id, secrets)
				return nil, eng, err
			},
			recovery: co.hub.recovery,
		}.serve(ctx, node)
		return err
	})
}

// startNodes starts one node goroutine per vertex through start — the
// chaos victim, if any, with a kill switch of its own — and opens the
// coordinator's session over them; the session then owns the nodes.
func startNodes(ctx context.Context, co *Coordinator, start func(ctx context.Context, id network.NodeID, chaos *NodeChaos) error) (*Session, error) {
	sc := co.sc
	n := sc.Graph.N()
	// Node lifetime is the session's, not the opening context's: a canceled
	// Open must still tear the nodes down, which nodeCtx does. WithoutCancel
	// keeps ctx's values while detaching its cancellation.
	nodeCtx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	nodes := &localNodes{cancel: cancel, errs: make(chan error, n)}
	for id := network.NodeID(1); int(id) <= n; id++ {
		runCtx, chaos := nodeCtx, (*NodeChaos)(nil)
		victim := sc.ChaosNode != 0 && id == sc.ChaosNode
		if victim {
			// The chaos victim gets its own cancelable context: Kill drops
			// the whole node — control and data planes — exactly as a
			// process death would, without touching its peers.
			vctx, kill := context.WithCancel(nodeCtx)
			runCtx, chaos = vctx, &NodeChaos{Barrier: sc.ChaosBarrier, Kill: kill}
		}
		nodes.wg.Add(1)
		go func() {
			defer nodes.wg.Done()
			// The victim's death is the experiment, not a failure.
			if err := start(runCtx, id, chaos); err != nil && !victim {
				nodes.errs <- fmt.Errorf("node %d: %w", id, err)
			}
		}()
	}
	sess, err := co.Open(ctx)
	if err != nil {
		cancel()
		nodes.wg.Wait()
		return nil, err
	}
	sess.nodes = nodes
	return sess, nil
}

// localNodes are the node goroutines of a fleet started in this process.
type localNodes struct {
	cancel context.CancelFunc
	wg     sync.WaitGroup
	errs   chan error
}

// wait lets the nodes exit and returns the first node error. The shutdown
// handshake (or, after a failed Run, the closed control connections) makes
// every node exit on its own; canceling their context up front would race
// the in-flight shutdown message, so cancellation is only the watchdog for
// a node that fails to exit.
func (l *localNodes) wait() error {
	exited := make(chan struct{})
	go func() {
		l.wg.Wait()
		close(exited)
	}()
	select {
	case <-exited:
	case <-time.After(15 * time.Second):
		l.cancel()
		<-exited
	}
	l.cancel()
	select {
	case err := <-l.errs:
		return err
	default:
		return nil
	}
}

// hubFleet is what the nodes of an in-process fleet share with their
// driver: the hub, one deployment, the dealer broker (under OTDealer), and
// the trusted party's publications, which their engines install as made.
type hubFleet struct {
	grp    group.Group
	net    *network.Network
	dep    *vertex.Deployment
	broker *ot.DealerBroker // nil under OTIKNP

	// pubs holds the trusted party's publications by recovery epoch: 0 is
	// the setup Open made, each re-blocking the next.
	mu   sync.Mutex
	pubs map[int]*vertex.Recovery
}

func newHubFleet(grp group.Group, sc Scenario, prog *vertex.Program, mode OTMode) (*hubFleet, error) {
	h := &hubFleet{grp: grp, net: network.New(), pubs: make(map[int]*vertex.Recovery)}
	switch mode {
	case OTDealer:
		h.broker = ot.NewDealerBroker()
	case OTIKNP:
	default:
		return nil, fmt.Errorf("cluster: unknown OT mode %d", mode)
	}
	var err error
	if h.dep, err = newDeployment(grp, sc.Cfg, sc.Recover, prog, sc.Graph); err != nil {
		return nil, err
	}
	// The default query's aggregation plan is part of what opening the
	// deployment pays for, not its first query.
	if err := h.dep.Prepare(sc.Cfg.Epsilon); err != nil {
		return nil, err
	}
	return h, nil
}

// publish files one epoch's publication before any node is told of it.
func (h *hubFleet) publish(epoch int, rec *vertex.Recovery) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.pubs[epoch] = rec
}

// engine builds node id's engine on its hub endpoint from Open's setup.
func (h *hubFleet) engine(id network.NodeID, secrets trustedparty.NodeSecrets) (*vertex.Engine, error) {
	h.mu.Lock()
	setup := h.pubs[0].Setup
	h.mu.Unlock()
	ep := h.net.Endpoint(id)
	var opt gmw.OTOption = gmw.DealerOT{Broker: h.broker}
	if h.broker == nil {
		opt = gmw.SubstrateOT{Sub: ot.NewSubstrate(h.grp, ep)}
	}
	return vertex.NewEngine(h.dep, setup, secrets, ep, opt)
}

// recovery hands a node the re-blocking its driver announced for the
// message's epoch.
func (h *hubFleet) recovery(_ group.Group, rm recoverMsg) (*vertex.Recovery, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if rec := h.pubs[rm.Epoch]; rec != nil {
		return rec, nil
	}
	return nil, fmt.Errorf("cluster: no re-blocking announced for epoch %d", rm.Epoch)
}

// retire drops a finished query's namespace from every endpoint of the hub
// and from the dealer broker. The engines retire their own on success; the
// sweep also covers failed and superseded runs and a dead node's endpoint.
func (h *hubFleet) retire(root string) {
	h.net.RetireTagPrefix(root)
	if h.broker != nil {
		h.broker.RetireTagPrefix(root)
	}
}

// pipeListener is the control plane of an in-process fleet: it hands the
// coordinator the far ends of its nodes' control pipes, so Open serves
// in-process nodes exactly as it serves TCP ones.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "in-process" }
