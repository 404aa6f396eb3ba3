// Package networktest provides a conformance suite for network.Transport
// implementations. Both transports — the in-process hub (internal/network)
// and the TCP peer (internal/tcpnet) — must exhibit identical messaging
// semantics, because the protocol layers above are written once against the
// interface and a cluster run must be wire-compatible with a simulated one.
package networktest

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"dstress/internal/network"
)

// Pair is two connected transports that can reach each other by ID.
type Pair struct {
	A, B network.Transport
}

// RunConformance exercises the Transport contract against pairs produced by
// mk: delivery, payload integrity, per-(sender, tag) FIFO order, tag and
// sender isolation, non-blocking sends ahead of receives, concurrent
// all-to-all exchange, traffic accounting node-wide and by tag prefix, and
// namespace retirement. mk is called once per subtest so state does not
// leak between them.
func RunConformance(t *testing.T, mk func(t *testing.T) Pair) {
	t.Run("RoundTrip", func(t *testing.T) {
		p := mk(t)
		want := []byte("payload")
		if err := p.A.Send(p.B.ID(), "t", want); err != nil {
			t.Fatal(err)
		}
		got, err := p.B.Recv(context.Background(), p.A.ID(), "t")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("got %q, want %q", got, want)
		}
	})

	t.Run("FIFOPerSenderTag", func(t *testing.T) {
		p := mk(t)
		const n = 200
		for i := 0; i < n; i++ {
			if err := p.A.Send(p.B.ID(), "seq", []byte{byte(i), byte(i >> 8)}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < n; i++ {
			got, err := p.B.Recv(context.Background(), p.A.ID(), "seq")
			if err != nil {
				t.Fatal(err)
			}
			if int(got[0])|int(got[1])<<8 != i {
				t.Fatalf("message %d out of order", i)
			}
		}
	})

	t.Run("TagsIsolate", func(t *testing.T) {
		p := mk(t)
		if err := p.A.Send(p.B.ID(), "x", []byte("for x")); err != nil {
			t.Fatal(err)
		}
		if err := p.A.Send(p.B.ID(), "y", []byte("for y")); err != nil {
			t.Fatal(err)
		}
		// Receiving in the opposite order must still route by tag.
		if got, err := p.B.Recv(context.Background(), p.A.ID(), "y"); err != nil || string(got) != "for y" {
			t.Errorf("tag y got %q, %v", got, err)
		}
		if got, err := p.B.Recv(context.Background(), p.A.ID(), "x"); err != nil || string(got) != "for x" {
			t.Errorf("tag x got %q, %v", got, err)
		}
	})

	t.Run("PayloadCopied", func(t *testing.T) {
		p := mk(t)
		buf := []byte("original")
		if err := p.A.Send(p.B.ID(), "t", buf); err != nil {
			t.Fatal(err)
		}
		copy(buf, "CLOBBER!")
		if got, _ := p.B.Recv(context.Background(), p.A.ID(), "t"); string(got) != "original" {
			t.Errorf("payload aliased sender buffer: %q", got)
		}
	})

	t.Run("SendBeforeRecvDoesNotBlock", func(t *testing.T) {
		// The MPC pattern: both sides send a round's worth of messages
		// before either receives. Bounded transports would deadlock here.
		p := mk(t)
		const rounds = 50
		for i := 0; i < rounds; i++ {
			if err := p.A.Send(p.B.ID(), "r", []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
			if err := p.B.Send(p.A.ID(), "r", []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < rounds; i++ {
			if got, err := p.A.Recv(context.Background(), p.B.ID(), "r"); err != nil || got[0] != byte(i) {
				t.Fatalf("A round %d: %v %v", i, got, err)
			}
			if got, err := p.B.Recv(context.Background(), p.A.ID(), "r"); err != nil || got[0] != byte(i) {
				t.Fatalf("B round %d: %v %v", i, got, err)
			}
		}
	})

	t.Run("ConcurrentExchange", func(t *testing.T) {
		p := mk(t)
		const msgs = 100
		var wg sync.WaitGroup
		run := func(me, peer network.Transport) {
			defer wg.Done()
			tag := fmt.Sprintf("ex/%d", me.ID())
			for i := 0; i < msgs; i++ {
				if err := me.Send(peer.ID(), tag, []byte{byte(i)}); err != nil {
					t.Error(err)
					return
				}
			}
			peerTag := fmt.Sprintf("ex/%d", peer.ID())
			for i := 0; i < msgs; i++ {
				got, err := me.Recv(context.Background(), peer.ID(), peerTag)
				if err != nil || got[0] != byte(i) {
					t.Errorf("node %d msg %d: %v %v", me.ID(), i, got, err)
					return
				}
			}
		}
		wg.Add(2)
		go run(p.A, p.B)
		go run(p.B, p.A)
		wg.Wait()
	})

	t.Run("RecvCancel", func(t *testing.T) {
		// A blocked Recv must return the context's error promptly on
		// cancellation — this is what lets a run abort instead of hanging
		// on a dead counterparty.
		p := mk(t)
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := p.B.Recv(ctx, p.A.ID(), "never-sent")
			done <- err
		}()
		time.Sleep(20 * time.Millisecond) // let the Recv park
		cancel()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Errorf("canceled Recv returned %v, want context.Canceled", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Recv did not return after cancellation")
		}
	})

	t.Run("RecvDeadline", func(t *testing.T) {
		p := mk(t)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		defer cancel()
		start := time.Now()
		_, err := p.B.Recv(ctx, p.A.ID(), "never-sent")
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("expired Recv returned %v, want context.DeadlineExceeded", err)
		}
		if time.Since(start) > 5*time.Second {
			t.Errorf("Recv outlived its deadline by %v", time.Since(start))
		}
	})

	t.Run("QueuedDrainsAfterCancel", func(t *testing.T) {
		// Messages that arrived before cancellation are still delivered:
		// cancellation aborts *waiting*, it does not drop data.
		p := mk(t)
		if err := p.A.Send(p.B.ID(), "q", []byte("queued")); err != nil {
			t.Fatal(err)
		}
		// Make sure the message has crossed the transport before canceling.
		if err := p.A.Send(p.B.ID(), "sync", []byte("x")); err != nil {
			t.Fatal(err)
		}
		if _, err := p.B.Recv(context.Background(), p.A.ID(), "sync"); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if got, err := p.B.Recv(ctx, p.A.ID(), "q"); err != nil || string(got) != "queued" {
			t.Errorf("queued message after cancel: %q, %v", got, err)
		}
	})

	t.Run("StatsCount", func(t *testing.T) {
		p := mk(t)
		if err := p.A.Send(p.B.ID(), "t", make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
		if _, err := p.B.Recv(context.Background(), p.A.ID(), "t"); err != nil {
			t.Fatal(err)
		}
		if s := p.A.Stats(); s.BytesSent < 64 || s.MessagesSent < 1 {
			t.Errorf("sender stats %+v", s)
		}
		if s := p.B.Stats(); s.BytesReceived < 64 {
			t.Errorf("receiver stats %+v", s)
		}
	})
	// roundTrip sends one 64-byte message A→B under tag and receives it, so
	// both sides' counters have seen it.
	roundTrip := func(t *testing.T, p Pair, tag string) {
		t.Helper()
		if err := p.A.Send(p.B.ID(), tag, make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
		if _, err := p.B.Recv(context.Background(), p.A.ID(), tag); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("TagStatsPerPrefix", func(t *testing.T) {
		// Counters are filed under network.TagPrefix(tag): per layer, and
		// per query for query-rooted tags. Each side counts its own half.
		p := mk(t)
		roundTrip(t, p, "q/3/blk/0/and/1")
		roundTrip(t, p, "q/3/blk/1/and/1")
		roundTrip(t, p, "q/3/tx/5")
		roundTrip(t, p, "otsub/1/2")
		sent, recv := p.A.TagStats(), p.B.TagStats()
		for prefix, msgs := range map[string]int64{"q/3/blk": 2, "q/3/tx": 1, "otsub": 1} {
			if s := sent[prefix]; s.MessagesSent != msgs || s.BytesSent < 64*msgs || s.BytesReceived != 0 {
				t.Errorf("sender %q: %+v, want %d messages of ≥64 bytes and nothing received", prefix, s, msgs)
			}
			if r := recv[prefix]; r.BytesReceived != sent[prefix].BytesSent || r.MessagesSent != 0 {
				t.Errorf("receiver %q: %+v, want exactly the sender's %d bytes received", prefix, r, sent[prefix].BytesSent)
			}
		}
		if len(sent) != 3 || len(recv) != 3 {
			t.Errorf("prefixes %v / %v, want exactly q/3/blk, q/3/tx, otsub", sent, recv)
		}
		// The snapshot is the caller's: mutating it must not reach the
		// transport's own counters.
		delete(sent, "otsub")
		if _, ok := p.A.TagStats()["otsub"]; !ok {
			t.Error("TagStats returned the live map, not a snapshot")
		}
	})

	t.Run("RetireAtComponentBoundary", func(t *testing.T) {
		// Retiring "q/3" drops q/3's counters and queued messages and
		// nothing of q/30's; node-wide Stats stay cumulative.
		p := mk(t)
		roundTrip(t, p, "q/3/blk/0")
		roundTrip(t, p, "q/30/blk/0")
		for _, tag := range []string{"q/3/late", "q/30/late", "sync"} {
			if err := p.A.Send(p.B.ID(), tag, []byte(tag)); err != nil {
				t.Fatal(err)
			}
		}
		// FIFO per sender: once "sync" has arrived, so have both "late"s.
		if _, err := p.B.Recv(context.Background(), p.A.ID(), "sync"); err != nil {
			t.Fatal(err)
		}
		before := p.B.Stats()
		p.B.RetireTagPrefix("q/3")
		if after := p.B.Stats(); after != before {
			t.Errorf("retirement changed node-wide stats: %+v → %+v", before, after)
		}
		for prefix := range p.B.TagStats() {
			if network.TagUnder(prefix, "q/3") {
				t.Errorf("prefix %q survived retiring q/3", prefix)
			}
		}
		if ts := p.B.TagStats(); ts["q/30/blk"].BytesReceived == 0 || ts["q/30/late"].BytesReceived == 0 {
			t.Errorf("retiring q/3 touched q/30's counters: %v", ts)
		}
		if got, err := p.B.Recv(context.Background(), p.A.ID(), "q/30/late"); err != nil || string(got) != "q/30/late" {
			t.Errorf("q/30's queued message after retiring q/3: %q, %v", got, err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		if got, err := p.B.Recv(ctx, p.A.ID(), "q/3/late"); err == nil {
			t.Errorf("retired mailbox still delivered %q", got)
		}
	})

	t.Run("RetireReleasesBlockedRecv", func(t *testing.T) {
		// A straggler parked in Recv under a retired namespace fails at
		// once; it does not wait for its context.
		p := mk(t)
		done := make(chan error, 1)
		go func() {
			_, err := p.B.Recv(context.Background(), p.A.ID(), "q/7/never-sent")
			done <- err
		}()
		time.Sleep(20 * time.Millisecond) // let the Recv park
		p.B.RetireTagPrefix("q/7")
		select {
		case err := <-done:
			if err == nil {
				t.Error("Recv under a retired namespace returned a message")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Recv still blocked after its namespace was retired")
		}
	})
}
