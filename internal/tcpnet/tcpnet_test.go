package tcpnet

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"io"
	"sync"
	"testing"
	"time"

	"dstress/internal/network"
	"dstress/internal/secretshare"
)

// newPair creates two connected peers on loopback.
func newPair(t *testing.T) (*Peer, *Peer) {
	t.Helper()
	a, err := Listen(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Listen(2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	a.Register(2, b.Addr())
	b.Register(1, a.Addr())
	return a, b
}

// mustRecv unwraps Recv's (payload, error) pair in tests that expect
// delivery to succeed.
func mustRecv(t testing.TB, p *Peer, from network.NodeID, tag string) []byte {
	t.Helper()
	got, err := p.Recv(context.Background(), from, tag)
	if err != nil {
		t.Fatalf("Recv(%d, %q): %v", from, tag, err)
	}
	return got
}

func TestSendRecvOverTCP(t *testing.T) {
	a, b := newPair(t)
	if err := a.Send(2, "greet", []byte("hello over tcp")); err != nil {
		t.Fatal(err)
	}
	if got := mustRecv(t, b, 1, "greet"); string(got) != "hello over tcp" {
		t.Errorf("got %q", got)
	}
}

func TestBidirectional(t *testing.T) {
	a, b := newPair(t)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		a.Send(2, "x", []byte("from a"))
		if got := mustRecv(t, a, 2, "x"); string(got) != "from b" {
			t.Errorf("a got %q", got)
		}
	}()
	go func() {
		defer wg.Done()
		b.Send(1, "x", []byte("from b"))
		if got := mustRecv(t, b, 1, "x"); string(got) != "from a" {
			t.Errorf("b got %q", got)
		}
	}()
	wg.Wait()
}

func TestFIFOPerSenderTag(t *testing.T) {
	a, b := newPair(t)
	const n = 500
	go func() {
		for i := 0; i < n; i++ {
			a.Send(2, "seq", []byte{byte(i), byte(i >> 8)})
		}
	}()
	for i := 0; i < n; i++ {
		got := mustRecv(t, b, 1, "seq")
		if int(got[0])|int(got[1])<<8 != i {
			t.Fatalf("message %d out of order", i)
		}
	}
}

func TestTagsIsolateOverTCP(t *testing.T) {
	a, b := newPair(t)
	a.Send(2, "one", []byte("1"))
	a.Send(2, "two", []byte("2"))
	if got := mustRecv(t, b, 1, "two"); string(got) != "2" {
		t.Errorf("tag two got %q", got)
	}
	if got := mustRecv(t, b, 1, "one"); string(got) != "1" {
		t.Errorf("tag one got %q", got)
	}
}

func TestLargePayload(t *testing.T) {
	a, b := newPair(t)
	payload := make([]byte, 1<<20)
	if _, err := rand.Read(payload); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(2, "big", payload); err != nil {
		t.Fatal(err)
	}
	if got := mustRecv(t, b, 1, "big"); !bytes.Equal(got, payload) {
		t.Error("large payload corrupted")
	}
}

func TestTrafficCounters(t *testing.T) {
	a, b := newPair(t)
	a.Send(2, "t", make([]byte, 100))
	got := mustRecv(t, b, 1, "t")
	if len(got) != 100 {
		t.Fatal("payload lost")
	}
	// Counters record full frames (10-byte header + tag + payload),
	// including the one-time greeting frame on the new connection.
	want := frameBytes(identTag, nil) + frameBytes("t", make([]byte, 100))
	if s := a.Stats(); s.BytesSent != want || s.MessagesSent != 1 {
		t.Errorf("sender stats %+v, want %d bytes", s, want)
	}
	if s := b.Stats(); s.BytesReceived != want {
		t.Errorf("receiver stats %+v, want %d bytes", s, want)
	}
}

func TestUnknownPeerErrors(t *testing.T) {
	a, _ := newPair(t)
	if err := a.Send(99, "t", []byte("x")); err == nil {
		t.Error("send to unregistered node succeeded")
	}
}

func TestThreePeerShareExchange(t *testing.T) {
	// The deployment shape of DStress's initialization step (§3.6) over
	// real sockets: an owner XOR-splits a secret and distributes the
	// shares to its block members; reconstruction equals the secret, and
	// no single wire carried it.
	peers := make([]*Peer, 3)
	for i := range peers {
		p, err := Listen(network.NodeID(i+1), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		peers[i] = p
	}
	for i, p := range peers {
		for j, q := range peers {
			if i != j {
				p.Register(q.ID(), q.Addr())
			}
		}
	}

	const secret = uint64(0xbeef)
	shares := secretshare.SplitXOR(secret, 3, 16)
	// Owner (peer 0) keeps shares[0], ships the rest.
	for m := 1; m < 3; m++ {
		buf := []byte{byte(shares[m]), byte(shares[m] >> 8)}
		if err := peers[0].Send(network.NodeID(m+1), "init", buf); err != nil {
			t.Fatal(err)
		}
		if shares[m] == secret {
			t.Log("share happens to equal secret; harmless but noted")
		}
	}
	got := shares[0]
	for m := 1; m < 3; m++ {
		raw := mustRecv(t, peers[m], 1, "init")
		got ^= uint64(raw[0]) | uint64(raw[1])<<8
	}
	if got != secret {
		t.Errorf("reconstructed %#x, want %#x", got, secret)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, 7, "a/b/c", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	from, tag, payload, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if from != 7 || tag != "a/b/c" || string(payload) != "payload" {
		t.Errorf("frame round trip: %d %q %q", from, tag, payload)
	}
}

func TestFrameRejectsGarbage(t *testing.T) {
	// A frame claiming an absurd length must be rejected, not allocated.
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, _, _, err := readFrame(&buf); !errors.Is(err, ErrBadFrame) {
		t.Errorf("oversized frame: %v, want ErrBadFrame", err)
	}
	var short bytes.Buffer
	short.Write([]byte{0, 0, 0, 2, 0, 0})
	if _, _, _, err := readFrame(&short); !errors.Is(err, ErrBadFrame) {
		t.Errorf("undersized frame: %v, want ErrBadFrame", err)
	}
}

// FuzzReadFrame feeds arbitrary bytes to the frame reader every inbound
// connection runs. It never panics; it fails only with ErrBadFrame (a
// malformed header), io.ErrUnexpectedEOF (a frame cut short) or io.EOF (no
// frame at all), each exactly when the bytes call for it; and a frame it
// accepts re-encodes to the bytes it was read from.
func FuzzReadFrame(f *testing.F) {
	var valid bytes.Buffer
	if err := writeFrame(&valid, 7, "q/1/gmw", []byte("payload")); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()-3])           // truncated body
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})          // oversized
	f.Add([]byte{0, 0, 0, 6, 0, 0, 0, 1, 0xff, 0}) // tag overruns the frame
	f.Fuzz(func(t *testing.T, data []byte) {
		from, tag, payload, err := readFrame(bytes.NewReader(data))
		var want error
		switch {
		case len(data) == 0:
			want = io.EOF
		case len(data) < 4:
			want = io.ErrUnexpectedEOF
		default:
			total := binary.BigEndian.Uint32(data)
			switch {
			case total > maxFrame || total < 6:
				want = ErrBadFrame
			case uint64(len(data)-4) < uint64(total):
				want = io.ErrUnexpectedEOF
			case 6+int(binary.BigEndian.Uint16(data[8:])) > int(total):
				want = ErrBadFrame
			}
		}
		if want != nil {
			if !errors.Is(err, want) {
				t.Fatalf("readFrame(%x) = %v, want %v", data, err, want)
			}
			return
		}
		if err != nil {
			t.Fatalf("readFrame(%x) refused a well-formed frame: %v", data, err)
		}
		var re bytes.Buffer
		if err := writeFrame(&re, from, tag, payload); err != nil {
			t.Fatalf("re-encoding frame from %d tag %q: %v", from, tag, err)
		}
		if !bytes.Equal(re.Bytes(), data[:re.Len()]) {
			t.Fatalf("frame %x re-encodes as %x", data[:re.Len()], re.Bytes())
		}
	})
}

func BenchmarkTCPRoundTrip(b *testing.B) {
	a, err := Listen(1, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	c, err := Listen(2, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer a.Close()
	defer c.Close()
	a.Register(2, c.Addr())
	c.Register(1, a.Addr())
	payload := make([]byte, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Send(2, "b", payload); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Recv(context.Background(), 1, "b"); err != nil {
			b.Fatal(err)
		}
	}
}

func TestRemotePeerDeathUnblocksRecv(t *testing.T) {
	a, b := newPair(t)
	// Establish a's inbound connection at b and queue one message.
	if err := a.Send(2, "queued", []byte("drains")); err != nil {
		t.Fatal(err)
	}
	if got := mustRecv(t, b, 1, "queued"); string(got) != "drains" {
		t.Fatalf("warm-up delivery got %q", got)
	}

	recvErr := make(chan error, 1)
	go func() {
		_, err := b.Recv(context.Background(), 1, "never-sent")
		recvErr <- err
	}()
	if err := a.Send(2, "final", []byte("in flight")); err != nil {
		t.Fatal(err)
	}
	a.Close() // node 1 dies

	// The blocked Recv must be released with an error, not hang.
	select {
	case err := <-recvErr:
		if err == nil {
			t.Error("Recv from a dead sender returned without error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv still blocked 5s after the sender died")
	}
	// Messages sent before the death still drain.
	if got, err := b.Recv(context.Background(), 1, "final"); err != nil || string(got) != "in flight" {
		t.Errorf("pre-death message lost: %q, %v", got, err)
	}
	// Future Recvs from the dead sender fail fast instead of blocking.
	if _, err := b.Recv(context.Background(), 1, "some-new-tag"); err == nil {
		t.Error("Recv on a fresh tag from a dead sender did not fail")
	}
}

func TestSendAfterCloseFails(t *testing.T) {
	a, b := newPair(t)
	if err := a.Send(2, "t", []byte("x")); err != nil {
		t.Fatal(err)
	}
	mustRecv(t, b, 1, "t")
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(2, "t", []byte("after close")); err == nil {
		t.Error("Send on a closed peer succeeded")
	}
}

func TestDialerDeathBeforeFirstDataReleasesRecv(t *testing.T) {
	a, b := newPair(t)
	// Open the connection (greeting frame only — no data ever sent).
	if _, err := a.conn(2); err != nil {
		t.Fatal(err)
	}
	recvErr := make(chan error, 1)
	go func() {
		_, err := b.Recv(context.Background(), 1, "never")
		recvErr <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the Recv block and the greeting land
	a.Close()
	select {
	case err := <-recvErr:
		if err == nil {
			t.Error("Recv returned without error after the dialer died pre-data")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv still blocked after a pre-data dialer death")
	}
}
