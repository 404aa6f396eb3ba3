// Package tcpnet is the deployment transport: the same
// (sender, receiver, tag)-addressed messaging semantics as the in-process
// hub in internal/network, carried over real TCP connections.
//
// The paper's nodes are banks' machines communicating over the Internet
// (§3.3); the evaluation ran on EC2 instances in one region. This package
// provides that wire layer for out-of-process deployments: each node runs
// a Peer that listens on a TCP address, dials its counterparties lazily,
// and frames messages as
//
//	uint32 length | int32 from | uint16 tagLen | tag | payload
//
// Delivery preserves per-(sender, tag) FIFO order (messages from one
// sender travel on one connection in order and are queued in order).
// Traffic counters record the actual framed wire bytes (header + tag +
// payload) on both sides, where the in-process hub adds a modeled
// per-message overhead; both therefore approximate the same packet-capture
// quantity. Confidentiality/integrity of the channel itself is expected
// from the usual TLS layer in a real deployment; the DStress protocols
// additionally never place bare secrets on the wire (shares are encrypted
// or information-theoretically masked).
package tcpnet

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"dstress/internal/network"
)

// maxFrame bounds a single message; GMW rounds batch at most a few MB.
const maxFrame = 64 << 20

// identTag marks the greeting frame a dialer sends first on every outbound
// connection, so the accepting side knows which node feeds the connection
// before any data arrives — and can release that sender's mailboxes if the
// connection dies even mid-handshake. The NUL prefix keeps it out of the
// protocol tag namespace.
const identTag = "\x00tcpnet/ident"

// Peer is one node's TCP attachment.
type Peer struct {
	id       network.NodeID
	listener net.Listener

	// boxes is the receiving half, the same mailbox table the hub uses.
	boxes network.Mailboxes

	mu    sync.Mutex
	dials map[network.NodeID]net.Conn // outbound connections by peer id
	addrs map[network.NodeID]string   // directory: node id → address

	// total counts framed wire bytes node-wide, tagStats by tag prefix
	// (protocol layer): atomics in a sync.Map, so the data-plane hot path
	// never takes p.mu.
	total    counter
	tagStats sync.Map // string → *counter

	closed  atomic.Bool
	writeMu sync.Map // per-conn *sync.Mutex
}

var _ network.Transport = (*Peer)(nil)

// counter accumulates traffic; stats snapshots it as a network.Stats.
type counter struct {
	bytesSent, bytesRecv, msgsSent atomic.Int64
}

func (c *counter) stats() network.Stats {
	return network.Stats{
		BytesSent:     c.bytesSent.Load(),
		BytesReceived: c.bytesRecv.Load(),
		MessagesSent:  c.msgsSent.Load(),
	}
}

func counterIn(m *sync.Map, key any) *counter {
	c, ok := m.Load(key)
	if !ok {
		c, _ = m.LoadOrStore(key, new(counter))
	}
	return c.(*counter)
}

// Listen starts a peer on addr ("127.0.0.1:0" for an ephemeral port).
func Listen(id network.NodeID, addr string) (*Peer, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcpnet: listen %s: %w", addr, err)
	}
	p := &Peer{
		id:       id,
		listener: l,
		dials:    make(map[network.NodeID]net.Conn),
		addrs:    make(map[network.NodeID]string),
	}
	go p.acceptLoop()
	return p, nil
}

// ID returns this peer's node id.
func (p *Peer) ID() network.NodeID { return p.id }

// Addr returns the listening address (for directory registration).
func (p *Peer) Addr() string { return p.listener.Addr().String() }

// Register adds a node-id → address mapping; in a deployment the trusted
// party's signed node list (§3.4) plays this role.
func (p *Peer) Register(id network.NodeID, addr string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.addrs[id] = addr
}

// Close shuts the peer down: the listener and all outbound connections are
// closed, every blocked or future Recv is released with an error (queued
// messages still drain), and subsequent Sends fail.
func (p *Peer) Close() error {
	p.closed.Store(true)
	err := p.listener.Close()
	p.mu.Lock()
	for _, c := range p.dials {
		c.Close()
	}
	p.mu.Unlock()
	p.boxes.Close()
	return err
}

// Stats returns the traffic snapshot, aligned with network.Stats.
func (p *Peer) Stats() network.Stats { return p.total.stats() }

// TagStats returns framed wire bytes and messages aggregated by tag prefix
// (the protocol layer: "blk", "tx", "init", …). The ident greeting is
// excluded — it carries no protocol tag.
func (p *Peer) TagStats() map[string]network.Stats {
	out := make(map[string]network.Stats)
	p.tagStats.Range(func(k, v any) bool {
		out[k.(string)] = v.(*counter).stats()
		return true
	})
	return out
}

// RetireTagPrefix implements network.Transport. A standing daemon calls it
// after reporting a query's doneMsg.
func (p *Peer) RetireTagPrefix(prefix string) {
	p.tagStats.Range(func(k, v any) bool {
		if network.TagUnder(k.(string), prefix) {
			p.tagStats.Delete(k)
		}
		return true
	})
	p.boxes.Retire(prefix)
}

func (p *Peer) acceptLoop() {
	for {
		conn, err := p.listener.Accept()
		if err != nil {
			return // listener closed
		}
		go p.readLoop(conn)
	}
}

// readLoop drains one inbound connection. A sender's messages all travel on
// its single outbound connection, so when that connection dies the sender
// is gone for good (there is no reconnection — fail-stop, like the paper's
// prototype): every mailbox fed by it is released so blocked Recvs fail
// instead of hanging the surviving daemons forever. Already-queued messages
// still drain first.
func (p *Peer) readLoop(conn net.Conn) {
	defer conn.Close()
	var lastFrom network.NodeID
	seen := false
	for {
		from, tag, payload, err := readFrame(conn)
		if err != nil {
			if seen && !p.closed.Load() {
				p.boxes.CloseFrom(lastFrom)
			}
			return
		}
		lastFrom, seen = from, true
		n := frameBytes(tag, payload)
		p.total.bytesRecv.Add(n)
		if tag == identTag {
			continue
		}
		counterIn(&p.tagStats, network.TagPrefix(tag)).bytesRecv.Add(n)
		p.boxes.Put(from, tag, payload)
	}
}

// conn returns (dialing lazily) the outbound connection to peer `to`.
func (p *Peer) conn(to network.NodeID) (net.Conn, error) {
	if p.closed.Load() {
		return nil, fmt.Errorf("tcpnet: peer %d is closed", p.id)
	}
	p.mu.Lock()
	if c, ok := p.dials[to]; ok {
		p.mu.Unlock()
		return c, nil
	}
	addr, ok := p.addrs[to]
	p.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("tcpnet: no address registered for node %d", to)
	}
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcpnet: dial node %d at %s: %w", to, addr, err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	// Re-check under the lock: a concurrent Close may have already swept
	// p.dials, and a connection stored now would outlive the peer.
	if p.closed.Load() {
		c.Close()
		return nil, fmt.Errorf("tcpnet: peer %d is closed", p.id)
	}
	if existing, ok := p.dials[to]; ok {
		c.Close()
		return existing, nil
	}
	// Greet before the connection becomes visible to Send: the accepting
	// side learns who feeds this connection even if we die before sending
	// any data, so its blocked Recvs can be released.
	if err := writeFrame(c, p.id, identTag, nil); err != nil {
		c.Close()
		return nil, fmt.Errorf("tcpnet: greeting node %d: %w", to, err)
	}
	p.total.bytesSent.Add(frameBytes(identTag, nil))
	p.dials[to] = c
	return c, nil
}

// Send delivers payload to node `to` under tag.
func (p *Peer) Send(to network.NodeID, tag string, payload []byte) error {
	c, err := p.conn(to)
	if err != nil {
		return err
	}
	muI, _ := p.writeMu.LoadOrStore(to, &sync.Mutex{})
	mu := muI.(*sync.Mutex)
	mu.Lock()
	defer mu.Unlock()
	if err := writeFrame(c, p.id, tag, payload); err != nil {
		return fmt.Errorf("tcpnet: send to %d: %w", to, err)
	}
	n := frameBytes(tag, payload)
	p.total.bytesSent.Add(n)
	p.total.msgsSent.Add(1)
	tc := counterIn(&p.tagStats, network.TagPrefix(tag))
	tc.bytesSent.Add(n)
	tc.msgsSent.Add(1)
	return nil
}

// frameBytes is the exact on-the-wire size of one message:
// uint32 length | int32 from | uint16 tagLen | tag | payload.
func frameBytes(tag string, payload []byte) int64 {
	return int64(4 + 4 + 2 + len(tag) + len(payload))
}

// Recv blocks until a message from `from` with the given tag arrives, the
// context is done, or the peer is closed. Queued messages drain before
// either failure is reported.
func (p *Peer) Recv(ctx context.Context, from network.NodeID, tag string) ([]byte, error) {
	return p.boxes.Get(ctx, from, tag)
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

func writeFrame(w io.Writer, from network.NodeID, tag string, payload []byte) error {
	if len(tag) > 0xffff {
		return errors.New("tcpnet: tag too long")
	}
	total := 4 + 2 + len(tag) + len(payload)
	if total > maxFrame {
		return fmt.Errorf("tcpnet: frame of %d bytes exceeds limit", total)
	}
	buf := make([]byte, 4+total)
	binary.BigEndian.PutUint32(buf[0:], uint32(total))
	binary.BigEndian.PutUint32(buf[4:], uint32(from))
	binary.BigEndian.PutUint16(buf[8:], uint16(len(tag)))
	copy(buf[10:], tag)
	copy(buf[10+len(tag):], payload)
	_, err := w.Write(buf)
	return err
}

// ErrBadFrame reports a frame whose header is malformed: a length outside
// [6, maxFrame] or a tag that overruns the frame. A frame cut short by the
// end of the stream reads as io.ErrUnexpectedEOF instead; io.EOF means the
// stream ended cleanly between frames.
var ErrBadFrame = errors.New("tcpnet: malformed frame")

func readFrame(r io.Reader) (from network.NodeID, tag string, payload []byte, err error) {
	var hdr [4]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, "", nil, err
	}
	total := binary.BigEndian.Uint32(hdr[:])
	if total > maxFrame || total < 6 {
		return 0, "", nil, fmt.Errorf("%w: length %d", ErrBadFrame, total)
	}
	body := make([]byte, total)
	if _, err = io.ReadFull(r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // the header promised a body
		}
		return 0, "", nil, err
	}
	from = network.NodeID(binary.BigEndian.Uint32(body[0:]))
	tagLen := int(binary.BigEndian.Uint16(body[4:]))
	if 6+tagLen > int(total) {
		return 0, "", nil, fmt.Errorf("%w: tag of %d bytes overruns a %d-byte frame", ErrBadFrame, tagLen, total)
	}
	tag = string(body[6 : 6+tagLen])
	payload = body[6+tagLen:]
	return from, tag, payload, nil
}
