package network

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// mustRecv unwraps the (payload, error) pair for hub endpoints, whose Recv
// never fails.
func mustRecv(t testing.TB, e *Endpoint, from NodeID, tag string) []byte {
	t.Helper()
	got, err := e.Recv(context.Background(), from, tag)
	if err != nil {
		t.Fatalf("Recv(%d, %q): %v", from, tag, err)
	}
	return got
}

func TestSendRecv(t *testing.T) {
	n := New()
	a := n.Endpoint(1)
	b := n.Endpoint(2)
	go a.Send(2, "t", []byte("hello"))
	got := mustRecv(t, b, 1, "t")
	if string(got) != "hello" {
		t.Errorf("got %q", got)
	}
}

func TestFIFOOrder(t *testing.T) {
	n := New()
	a := n.Endpoint(1)
	b := n.Endpoint(2)
	for i := 0; i < 100; i++ {
		a.Send(2, "seq", []byte{byte(i)})
	}
	for i := 0; i < 100; i++ {
		got := mustRecv(t, b, 1, "seq")
		if got[0] != byte(i) {
			t.Fatalf("message %d out of order: %d", i, got[0])
		}
	}
}

func TestTagsIsolate(t *testing.T) {
	n := New()
	a := n.Endpoint(1)
	b := n.Endpoint(2)
	a.Send(2, "x", []byte("for x"))
	a.Send(2, "y", []byte("for y"))
	if got := mustRecv(t, b, 1, "y"); string(got) != "for y" {
		t.Errorf("tag y got %q", got)
	}
	if got := mustRecv(t, b, 1, "x"); string(got) != "for x" {
		t.Errorf("tag x got %q", got)
	}
}

func TestSendersIsolate(t *testing.T) {
	n := New()
	n.Endpoint(1).Send(3, "t", []byte("from 1"))
	n.Endpoint(2).Send(3, "t", []byte("from 2"))
	c := n.Endpoint(3)
	if got := mustRecv(t, c, 2, "t"); string(got) != "from 2" {
		t.Errorf("from 2 got %q", got)
	}
	if got := mustRecv(t, c, 1, "t"); string(got) != "from 1" {
		t.Errorf("from 1 got %q", got)
	}
}

func TestPayloadCopied(t *testing.T) {
	n := New()
	a := n.Endpoint(1)
	b := n.Endpoint(2)
	buf := []byte("original")
	a.Send(2, "t", buf)
	copy(buf, "CLOBBER!")
	if got := mustRecv(t, b, 1, "t"); string(got) != "original" {
		t.Errorf("payload aliased sender buffer: %q", got)
	}
}

func TestTrafficAccounting(t *testing.T) {
	n := New()
	a := n.Endpoint(1)
	a.Send(2, "t", make([]byte, 100))
	a.Send(2, "t", make([]byte, 50))
	n.Endpoint(2).Send(1, "t", make([]byte, 5))

	const h = DefaultHeaderOverhead
	s1 := n.NodeStats(1)
	if s1.BytesSent != 150+2*h {
		t.Errorf("node1 sent %d, want %d", s1.BytesSent, 150+2*h)
	}
	if s1.BytesReceived != 5+h {
		t.Errorf("node1 received %d, want %d", s1.BytesReceived, 5+h)
	}
	if s1.MessagesSent != 2 {
		t.Errorf("node1 msgs %d, want 2", s1.MessagesSent)
	}
	const total = 155 + 3*h
	if n.TotalBytes() != total {
		t.Errorf("total %d, want %d", n.TotalBytes(), total)
	}
	if n.MaxNodeBytes() != total { // node1: sent + received
		t.Errorf("max node bytes %d, want %d", n.MaxNodeBytes(), total)
	}
	if avg := n.AvgNodeBytes(); avg != total { // both nodes see every byte once
		t.Errorf("avg node bytes %v, want %d", avg, total)
	}
}

func TestConcurrentManySenders(t *testing.T) {
	n := New()
	const senders = 16
	const msgs = 200
	recv := n.Endpoint(0)
	var wg sync.WaitGroup
	for s := 1; s <= senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			e := n.Endpoint(NodeID(s))
			for i := 0; i < msgs; i++ {
				e.Send(0, "load", []byte{byte(s), byte(i)})
			}
		}(s)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for s := 1; s <= senders; s++ {
			for i := 0; i < msgs; i++ {
				got := mustRecv(t, recv, NodeID(s), "load")
				if got[0] != byte(s) || got[1] != byte(i) {
					t.Errorf("sender %d msg %d corrupted: %v", s, i, got)
					return
				}
			}
		}
	}()
	wg.Wait()
	<-done
}

func TestTagHelper(t *testing.T) {
	if got := Tag("gmw", 3, "round", 7); got != "gmw/3/round/7" {
		t.Errorf("Tag = %q", got)
	}
}

func TestEndpointIdempotent(t *testing.T) {
	n := New()
	if n.Endpoint(5) != n.Endpoint(5) {
		t.Error("Endpoint not idempotent")
	}
}

func BenchmarkSendRecv(b *testing.B) {
	n := New()
	a := n.Endpoint(1)
	c := n.Endpoint(2)
	payload := make([]byte, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Send(2, "b", payload)
		c.Recv(context.Background(), 1, "b") //nolint:errcheck

	}
}

func BenchmarkParallelPairs(b *testing.B) {
	n := New()
	const pairs = 8
	b.RunParallel(func(pb *testing.PB) {
		// Each goroutine uses its own pair of endpoints keyed by a counter.
		idBase := NodeID(1000)
		var mu sync.Mutex
		mu.Lock()
		idBase += 2
		a, c := n.Endpoint(idBase), n.Endpoint(idBase+1)
		mu.Unlock()
		payload := make([]byte, 64)
		tag := fmt.Sprint(idBase)
		for pb.Next() {
			a.Send(c.ID(), tag, payload)
			c.Recv(context.Background(), a.ID(), tag) //nolint:errcheck

		}
	})
	_ = pairs
}
