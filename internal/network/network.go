// Package network provides the simulated transport that DStress nodes
// communicate over.
//
// The paper's evaluation (§5) runs nodes on EC2 instances and reports two
// quantities per experiment: computation time and traffic per node. This
// package reproduces the measurement infrastructure: every node owns an
// Endpoint, messages are delivered in-process through unbounded mailboxes
// (so protocol goroutines can never deadlock on back-pressure), and the hub
// keeps per-node byte and message counters that the benchmark harness reads
// after a run. A configurable per-message header overhead models framing
// (TCP/IP + TLS record) so traffic numbers are comparable in spirit to the
// paper's packet captures.
//
// Messages are addressed by (sender, receiver, tag). Tags multiplex the many
// concurrent protocol instances a node participates in — a node may be a
// member of several blocks (§5.4 observes nodes "handle multiple blocks in
// parallel") plus the relay for its own vertex's transfers.
package network

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
)

// NodeID identifies a node (a participant machine, not a vertex).
type NodeID int32

// Transport is one node's view of the messaging layer: point-to-point
// (peer, tag)-addressed messages with per-(sender, tag) FIFO ordering, plus
// traffic counters, node-wide and by tag prefix. Two implementations exist:
// the in-process hub Endpoint in this package (simulation and tests) and
// tcpnet.Peer (real deployments over TCP). Protocol layers (ot, gmw, transfer, vertex, cluster) are
// written against this interface, so the same protocol code runs unchanged
// in a single process or across machines.
//
// Send must not block on the receiver making progress (implementations
// buffer unboundedly), because MPC rounds have all-to-all traffic where
// everyone sends before anyone receives. Recv blocks until a matching
// message arrives, the context is canceled, or the transport is shut down;
// the latter two return an error, so a dead peer or a canceled run
// surfaces as a failure instead of a permanent hang.
type Transport interface {
	// ID returns the node this transport belongs to.
	ID() NodeID
	// Send delivers payload to node `to` under tag. The payload is copied
	// (or serialized) before Send returns, so callers may reuse the buffer.
	Send(to NodeID, tag string, payload []byte) error
	// Recv blocks until a message from `from` with the given tag arrives or
	// ctx is done, in which case it returns ctx's error. Messages queued
	// before cancellation are still delivered first.
	Recv(ctx context.Context, from NodeID, tag string) ([]byte, error)
	// Stats returns this node's traffic counters.
	Stats() Stats
	// TagStats returns a snapshot of the same counters by tag prefix (see
	// TagPrefix): the protocol layer, and for query-rooted tags the query,
	// the bytes belong to. Sent and received are counted independently.
	TagStats() map[string]Stats
	// RetireTagPrefix drops the counters and mailboxes filed under prefix
	// (see TagUnder) — a finished query's "q/<id>" root — so a standing
	// node does not grow by one counter set and one set of drained
	// mailboxes per query served. A Recv still blocked under prefix fails
	// at once. The node-wide Stats stay cumulative.
	RetireTagPrefix(prefix string)
}

// DefaultHeaderOverhead is the per-message framing cost, in bytes, added to
// traffic counters: a conservative stand-in for TCP/IP+TLS framing.
const DefaultHeaderOverhead = 64

// Network is the in-process message hub. Traffic is accounted per node, on
// the endpoints: every Send charges the sender's and the receiver's own
// counters, so an Endpoint reports what a tcpnet.Peer would — this node's
// bytes, by tag prefix — and the hub-wide figures are sums over endpoints.
type Network struct {
	mu        sync.Mutex
	endpoints map[NodeID]*Endpoint
	overhead  int
}

// New creates an empty network with the default header overhead.
func New() *Network {
	return &Network{
		endpoints: make(map[NodeID]*Endpoint),
		overhead:  DefaultHeaderOverhead,
	}
}

// SetHeaderOverhead overrides the per-message framing cost (bytes). It must
// be called before traffic starts flowing.
func (n *Network) SetHeaderOverhead(b int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.overhead = b
}

// Endpoint returns (creating if necessary) the endpoint for id.
func (n *Network) Endpoint(id NodeID) *Endpoint {
	e, _ := n.route(id)
	return e
}

// route returns the endpoint for id together with the framing overhead, in
// one critical section: the pair every Send needs.
func (n *Network) route(id NodeID) (*Endpoint, int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	e, ok := n.endpoints[id]
	if !ok {
		e = &Endpoint{net: n, id: id, tags: make(map[string]Stats)}
		n.endpoints[id] = e
	}
	return e, n.overhead
}

// all snapshots the endpoint set so hub-wide reads take each endpoint's own
// lock outside n.mu.
func (n *Network) all() []*Endpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	eps := make([]*Endpoint, 0, len(n.endpoints))
	for _, e := range n.endpoints {
		eps = append(eps, e)
	}
	return eps
}

// Stats is a snapshot of a node's traffic counters.
type Stats struct {
	BytesSent     int64
	BytesReceived int64
	MessagesSent  int64
}

// TagPrefix returns the component a tag's traffic is aggregated under. For
// plain tags it is the first "/"-separated component: the coarse protocol
// layer ("blk", "tx", "init", "aggsh", …). For query-rooted tags
// ("q/<id>/<layer>/...") it keeps the first three components, so counters
// stay separable per layer AND per query, and a finished query's whole
// counter set can be retired by its "q/<id>" root.
func TagPrefix(tag string) string {
	i := strings.IndexByte(tag, '/')
	if i < 0 {
		return tag
	}
	if tag[:i] != "q" {
		return tag[:i]
	}
	rest := tag[i+1:]
	j := strings.IndexByte(rest, '/')
	if j < 0 {
		return tag
	}
	layer := rest[j+1:]
	if k := strings.IndexByte(layer, '/'); k >= 0 {
		return tag[:i+1+j+1+k]
	}
	return tag
}

// TagUnder reports whether tag equals prefix or lives under it at a "/"
// component boundary: "q/3" covers "q/3" and "q/3/...", never "q/30". It is
// the one namespace-membership test — per-query accounting and retirement
// on every transport and the dealer broker all use it.
func TagUnder(tag, prefix string) bool {
	return tag == prefix || (strings.HasPrefix(tag, prefix) && len(tag) > len(prefix) && tag[len(prefix)] == '/')
}

// NodeStats returns the traffic snapshot for one node.
func (n *Network) NodeStats(id NodeID) Stats {
	n.mu.Lock()
	e := n.endpoints[id]
	n.mu.Unlock()
	if e == nil {
		return Stats{}
	}
	return e.Stats()
}

// TotalBytes returns the sum of bytes sent by all nodes.
func (n *Network) TotalBytes() int64 {
	var t int64
	for _, e := range n.all() {
		t += e.Stats().BytesSent
	}
	return t
}

// MaxNodeBytes returns the largest per-node sent+received byte count: the
// "traffic per node" quantity Figures 4–6 plot.
func (n *Network) MaxNodeBytes() int64 {
	var m int64
	for _, e := range n.all() {
		if s := e.Stats(); s.BytesSent+s.BytesReceived > m {
			m = s.BytesSent + s.BytesReceived
		}
	}
	return m
}

// AvgNodeBytes returns the mean per-node sent+received byte count over all
// endpoints that exist.
func (n *Network) AvgNodeBytes() float64 {
	eps := n.all()
	if len(eps) == 0 {
		return 0
	}
	var t int64
	for _, e := range eps {
		s := e.Stats()
		t += s.BytesSent + s.BytesReceived
	}
	return float64(t) / float64(len(eps))
}

// RetireTagPrefix retires prefix on every endpoint: the hub-wide sweep a
// driver runs once nothing of a query is in flight any more.
func (n *Network) RetireTagPrefix(prefix string) {
	for _, e := range n.all() {
		e.RetireTagPrefix(prefix)
	}
}

// ResetStats zeroes all traffic counters (between experiment phases).
func (n *Network) ResetStats() {
	for _, e := range n.all() {
		e.mu.Lock()
		e.stats = Stats{}
		e.tags = make(map[string]Stats)
		e.mu.Unlock()
	}
}

// ---------------------------------------------------------------------------
// Mailboxes and the hub endpoint
// ---------------------------------------------------------------------------

// ErrClosed is what a Recv returns once its mailbox has been closed — the
// tag namespace retired, the sender gone for good, or the transport shut
// down — and every queued message has drained.
var ErrClosed = errors.New("network: mailbox closed")

type boxKey struct {
	from NodeID
	tag  string
}

// mailbox is an unbounded FIFO queue guarded by a condition variable.
// Unbounded buffering is deliberate: GMW rounds have all-to-all traffic and
// bounded channels could deadlock when two parties send before receiving.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  [][]byte
	closed bool
}

func (m *mailbox) put(p []byte) {
	m.mu.Lock()
	m.queue = append(m.queue, p)
	m.mu.Unlock()
	m.cond.Signal()
}

func (m *mailbox) close() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.cond.Broadcast()
}

// get returns the next queued message. Queued messages are delivered even
// when ctx is already done or the mailbox closed — cancellation and
// shutdown abort waiting, they do not drop deliveries.
func (m *mailbox) get(ctx context.Context) ([]byte, error) {
	m.mu.Lock()
	if len(m.queue) > 0 {
		p := m.queue[0]
		m.queue = m.queue[1:]
		m.mu.Unlock()
		return p, nil
	}
	m.mu.Unlock()
	if ctx.Done() != nil {
		// Wake the condition variable when ctx fires. Broadcasting under
		// the lock is essential: it guarantees the waiter is either parked
		// in Wait or has not yet re-checked ctx.Err, so no wakeup is lost.
		stop := context.AfterFunc(ctx, func() {
			m.mu.Lock()
			m.cond.Broadcast()
			m.mu.Unlock()
		})
		defer stop()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.queue) == 0 && !m.closed {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		m.cond.Wait()
	}
	if len(m.queue) == 0 {
		return nil, ErrClosed
	}
	p := m.queue[0]
	m.queue = m.queue[1:]
	return p, nil
}

// Mailboxes is one node's table of (sender, tag) mailboxes: the receiving
// half of a Transport, shared by the hub Endpoint and tcpnet.Peer so that
// delivery, cancellation, retirement and shutdown behave identically on
// both. The zero value is ready to use.
type Mailboxes struct {
	mu     sync.Mutex
	boxes  map[boxKey]*mailbox
	dead   map[NodeID]bool // senders closed by CloseFrom
	closed bool
}

func (t *Mailboxes) box(from NodeID, tag string) *mailbox {
	t.mu.Lock()
	defer t.mu.Unlock()
	k := boxKey{from, tag}
	b, ok := t.boxes[k]
	if !ok {
		b = &mailbox{closed: t.closed || t.dead[from]}
		b.cond = sync.NewCond(&b.mu)
		if t.boxes == nil {
			t.boxes = make(map[boxKey]*mailbox)
		}
		t.boxes[k] = b
	}
	return b
}

// Put queues payload, which the table now owns, as from's next message
// under tag.
func (t *Mailboxes) Put(from NodeID, tag string, payload []byte) {
	t.box(from, tag).put(payload)
}

// Get blocks until from's next message under tag arrives, ctx is done (its
// error), or the mailbox is closed (ErrClosed).
func (t *Mailboxes) Get(ctx context.Context, from NodeID, tag string) ([]byte, error) {
	return t.box(from, tag).get(ctx)
}

// Retire closes and drops every mailbox whose tag lives under prefix (see
// TagUnder): a straggler still parked in Get fails at once instead of
// waiting on an orphaned queue.
func (t *Mailboxes) Retire(prefix string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for k, b := range t.boxes {
		if TagUnder(k.tag, prefix) {
			b.close()
			delete(t.boxes, k)
		}
	}
}

// CloseFrom closes every mailbox fed by one sender, present and future: the
// sender is gone for good.
func (t *Mailboxes) CloseFrom(from NodeID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.dead == nil {
		t.dead = make(map[NodeID]bool)
	}
	t.dead[from] = true
	for k, b := range t.boxes {
		if k.from == from {
			b.close()
		}
	}
}

// Close closes every mailbox, present and future.
func (t *Mailboxes) Close() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closed = true
	for _, b := range t.boxes {
		b.close()
	}
}

// Endpoint is one node's attachment to the network: the in-process
// Transport implementation, with counters and mailboxes scoped to this node
// — so N protocol engines can share one hub without touching each other's
// accounting or queues.
type Endpoint struct {
	net   *Network
	id    NodeID
	boxes Mailboxes

	mu    sync.Mutex
	stats Stats
	tags  map[string]Stats
}

var _ Transport = (*Endpoint)(nil)

// ID returns the node id this endpoint belongs to.
func (e *Endpoint) ID() NodeID { return e.id }

// Stats returns this endpoint's traffic counters.
func (e *Endpoint) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// TagStats returns a snapshot of this node's per-tag-prefix counters.
func (e *Endpoint) TagStats() map[string]Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[string]Stats, len(e.tags))
	for k, v := range e.tags {
		out[k] = v
	}
	return out
}

// RetireTagPrefix implements Transport.
func (e *Endpoint) RetireTagPrefix(prefix string) {
	e.mu.Lock()
	for k := range e.tags {
		if TagUnder(k, prefix) {
			delete(e.tags, k)
		}
	}
	e.mu.Unlock()
	e.boxes.Retire(prefix)
}

// Send delivers payload to node `to` under the given tag, charging the
// framed size to this node's sent counters and the receiver's received
// counters. The payload is copied, so callers may reuse their buffer.
// In-process delivery cannot fail; the error return satisfies Transport.
func (e *Endpoint) Send(to NodeID, tag string, payload []byte) error {
	dst, overhead := e.net.route(to)
	cp := make([]byte, len(payload))
	copy(cp, payload)
	total := int64(len(payload) + overhead)
	prefix := TagPrefix(tag)

	e.mu.Lock()
	e.stats.BytesSent += total
	e.stats.MessagesSent++
	ts := e.tags[prefix]
	ts.BytesSent += total
	ts.MessagesSent++
	e.tags[prefix] = ts
	e.mu.Unlock()

	dst.mu.Lock()
	dst.stats.BytesReceived += total
	ts = dst.tags[prefix]
	ts.BytesReceived += total
	dst.tags[prefix] = ts
	dst.mu.Unlock()

	dst.boxes.Put(e.id, tag, cp)
	return nil
}

// Recv blocks until a message from `from` with the given tag arrives and
// returns its payload, or until ctx is done.
func (e *Endpoint) Recv(ctx context.Context, from NodeID, tag string) ([]byte, error) {
	return e.boxes.Get(ctx, from, tag)
}

// Exchange sends payload to peer and receives the peer's payload under the
// same tag: the symmetric step most MPC rounds need.
func (e *Endpoint) Exchange(ctx context.Context, peer NodeID, tag string, payload []byte) ([]byte, error) {
	if err := e.Send(peer, tag, payload); err != nil {
		return nil, err
	}
	return e.Recv(ctx, peer, tag)
}

// Tag builds a hierarchical tag from parts; a helper so protocol layers
// construct collision-free namespaces.
func Tag(parts ...interface{}) string {
	s := ""
	for i, p := range parts {
		if i > 0 {
			s += "/"
		}
		s += fmt.Sprint(p)
	}
	return s
}
