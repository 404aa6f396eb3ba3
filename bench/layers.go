package main

import (
	"context"
	"crypto/rand"
	"fmt"
	"math"
	"sync"
	"time"

	"dstress"
	"dstress/internal/dp"
	"dstress/internal/elgamal"
	"dstress/internal/gmw"
	"dstress/internal/group"
	"dstress/internal/network"
	"dstress/internal/ot"
	"dstress/internal/secretshare"
	"dstress/internal/tcpnet"
	"dstress/internal/transfer"
	"dstress/internal/trustedparty"
	"dstress/internal/vertex"
)

// The calibration loops time each layer's exported functions directly, on
// the group and program sizes of the workload being traced, so that a
// per-layer unit cost stands next to the layer's busy time in a query.

// medianCall calls fn repeatedly for about budget (at least three times)
// and returns the median seconds per call and the number of calls.
func medianCall(budget time.Duration, fn func() error) (float64, int, error) {
	var xs []float64
	for start := time.Now(); len(xs) < 3 || time.Since(start) < budget; {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, 0, err
		}
		xs = append(xs, time.Since(t0).Seconds())
	}
	return median(xs), len(xs), nil
}

// together runs the functions concurrently and returns the first error.
func together(fns ...func() error) error {
	errs := make([]error, len(fns))
	var wg sync.WaitGroup
	for i, fn := range fns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// calibrate runs every calibration loop for one workload, recording one
// span per layer, and returns the per-layer metric values by name.
func calibrate(ctx context.Context, w workload, prog *dstress.Program, rec *recorder, parent int) (map[string]float64, error) {
	out := make(map[string]float64)
	steps := []struct {
		name string
		fn   func(context.Context, workload, *dstress.Program, map[string]float64) error
	}{
		{"calib/gmw", calibGMW},
		{"calib/transfer", calibTransfer},
		{"calib/elgamal+group", calibGroup},
		{"calib/ot", calibOT},
		{"calib/trustedparty+circuit", calibSetup},
		{"calib/network", calibHub},
		{"calib/tcpnet", calibTCP},
		{"calib/dp", calibLedger},
	}
	for _, s := range steps {
		_, end := rec.begin(parent, s.name, "")
		err := s.fn(ctx, w, prog, out)
		end()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
	}
	return out, nil
}

// calibGMW evaluates the EN D=3 update circuit with three parties over the
// hub and dealer OTs: the block MPC of every en-* workload.
func calibGMW(ctx context.Context, _ workload, _ *dstress.Program, out map[string]float64) error {
	prog, err := enSpec.Build()
	if err != nil {
		return err
	}
	c, err := prog.UpdateCircuit(3)
	if err != nil {
		return err
	}
	hub := network.New()
	ids := []network.NodeID{1, 2, 3}
	broker := ot.NewDealerBroker()
	parties := make([]*gmw.Party, len(ids))
	join := make([]func() error, len(ids))
	eval := make([]func() error, len(ids))
	for i := range ids {
		join[i] = func() (err error) {
			parties[i], err = gmw.NewParty(ctx, gmw.Config{
				Parties: ids, Index: i, Transport: hub.Endpoint(ids[i]), Tag: "cal", OT: gmw.DealerOT{Broker: broker},
			})
			return err
		}
		eval[i] = func() error {
			_, err := parties[i].Evaluate(ctx, c, make([]uint8, c.NumInputs))
			return err
		}
	}
	if err := together(join...); err != nil {
		return err
	}
	if err := together(eval...); err != nil { // warm
		return err
	}
	b0 := hub.TotalBytes()
	sec, n, err := medianCall(500*time.Millisecond, func() error { return together(eval...) })
	if err != nil {
		return err
	}
	out["gmw.ns_per_and"] = sec * 1e9 / float64(c.NumAnd)
	out["gmw.bytes_per_and"] = float64(hub.TotalBytes()-b0) / float64(n) / float64(c.NumAnd)
	return nil
}

// calibTransfer runs one §3.5 transfer — K+1 senders, relay, adjuster,
// K+1 receivers — between two standalone blocks, with the certificate-key
// tables prebuilt as a standing deployment has them.
func calibTransfer(ctx context.Context, w workload, prog *dstress.Program, out map[string]float64) error {
	g := w.group()
	p := transfer.Params{Group: g, K: w.k, L: prog.MsgBits, Alpha: 0.5}
	if err := p.Validate(); err != nil {
		return err
	}
	const relay, adjuster = network.NodeID(100), network.NodeID(200)
	hub := network.New()
	var senders, recvs []network.NodeID
	privKeys := make([][]*elgamal.PrivateKey, w.k+1)
	certKeys := make(transfer.RecipientKeys, w.k+1)
	neighbor := group.MustRandomScalar(g)
	for m := 0; m <= w.k; m++ {
		senders = append(senders, network.NodeID(1+m))
		recvs = append(recvs, network.NodeID(201+m))
		for b := 0; b < p.L; b++ {
			sk, err := elgamal.GenerateKey(g)
			if err != nil {
				return err
			}
			privKeys[m] = append(privKeys[m], sk)
			certKeys[m] = append(certKeys[m], sk.PublicKey.Randomize(neighbor))
		}
	}
	certKeys = certKeys.Precompute()
	table := p.MakeTable(1e-9)

	const value = 0x5a5
	round := func() error {
		shares := secretshare.SplitXOR(value, w.k+1, p.L)
		fresh := make([]uint64, w.k+1)
		roles := []func() error{
			func() error {
				return transfer.RunRelay(ctx, p, hub.Endpoint(relay), senders, adjuster, "cal", dp.CryptoSource{})
			},
			func() error { return transfer.RunAdjust(ctx, p, hub.Endpoint(adjuster), relay, recvs, neighbor, "cal") },
		}
		for m := 0; m <= w.k; m++ {
			roles = append(roles,
				func() error {
					return transfer.SendShare(ctx, p, hub.Endpoint(senders[m]), relay, "cal", shares[m], certKeys)
				},
				func() (err error) {
					fresh[m], err = transfer.ReceiveShare(ctx, p, hub.Endpoint(recvs[m]), adjuster, "cal", privKeys[m], table)
					return err
				})
		}
		if err := together(roles...); err != nil {
			return err
		}
		if got := secretshare.CombineXOR(fresh); got != value {
			return fmt.Errorf("transfer delivered %#x, sent %#x", got, value)
		}
		return nil
	}
	if err := round(); err != nil { // warm
		return err
	}
	sec, _, err := medianCall(300*time.Millisecond, round)
	if err != nil {
		return err
	}
	out["transfer.ms_per_transfer"] = sec * 1e3
	return nil
}

// calibGroup times the public-key primitives under the transfer roles on
// the workload's group: modp256 for the en-* workloads, P-256 for
// deg-p256-sim.
func calibGroup(_ context.Context, w workload, _ *dstress.Program, out map[string]float64) error {
	g := w.group()
	sk, err := elgamal.GenerateKey(g)
	if err != nil {
		return err
	}
	table := elgamal.NewTable(g, -64, 64)
	ct := sk.PublicKey.Encrypt(5)
	k := group.MustRandomScalar(g)
	h := g.ScalarBaseMul(group.MustRandomScalar(g))
	fixed := group.Precompute(g, h)
	loops := []struct {
		name string
		fn   func() error
	}{
		{"elgamal.encrypt_us", func() error { ct = sk.PublicKey.Encrypt(5); return nil }},
		{"elgamal.decrypt_us", func() error {
			m, err := sk.Decrypt(ct, table)
			if err == nil && m != 5 {
				err = fmt.Errorf("elgamal decrypted %d, want 5", m)
			}
			return err
		}},
		{"group.exp_us", func() error { g.ScalarMul(h, k); return nil }},
		{"group.fixedbase_exp_us", func() error { fixed.ScalarMul(k); return nil }},
	}
	for _, l := range loops {
		sec, _, err := medianCall(60*time.Millisecond, l.fn)
		if err != nil {
			return err
		}
		out[l.name] = sec * 1e6
	}
	return nil
}

// calibOT bootstraps one node pair's OT substrate over the hub (the base-OT
// handshake a tcp deployment pays per pair at set-up) and then extends it
// with IKNP, the per-AND cost of every non-dealer deployment.
func calibOT(ctx context.Context, w workload, _ *dstress.Program, out map[string]float64) error {
	hub := network.New()
	a, b := ot.NewSubstrate(w.group(), hub.Endpoint(1)), ot.NewSubstrate(w.group(), hub.Endpoint(2))
	t0 := time.Now()
	if err := together(
		func() error { return a.Warm(ctx, 2) },
		func() error { return b.Warm(ctx, 1) },
	); err != nil {
		return err
	}
	out["ot.baseot_ms_per_pair"] = time.Since(t0).Seconds() * 1e3

	snd, err := a.SenderFor(ctx, 2, "cal")
	if err != nil {
		return err
	}
	rcv, err := b.ReceiverFor(ctx, 1, "cal")
	if err != nil {
		return err
	}
	const batch = 1 << 16
	extend := func() error {
		return together(
			func() error { _, _, err := snd.RandomPadWords(ctx, batch); return err },
			func() error { _, _, err := rcv.RandomChoiceWords(ctx, batch); return err },
		)
	}
	if err := extend(); err != nil { // warm
		return err
	}
	b0 := hub.TotalBytes()
	sec, n, err := medianCall(200*time.Millisecond, extend)
	if err != nil {
		return err
	}
	out["ot.iknp_ns_per_ot"] = sec * 1e9 / batch
	out["ot.bytes_per_ot"] = float64(hub.TotalBytes()-b0) / float64(n) / batch
	return nil
}

// calibSetup times the two local parts of a deployment open: the trusted
// party's key registration and block assignment, and circuit compilation.
func calibSetup(_ context.Context, w workload, prog *dstress.Program, out map[string]float64) error {
	params := trustedparty.Params{Group: w.group(), K: w.k, D: w.d, L: prog.MsgBits}
	sec, _, err := medianCall(150*time.Millisecond, func() error {
		tp, err := trustedparty.New(params)
		if err != nil {
			return err
		}
		regs := make([]trustedparty.NodeRegistration, w.n)
		for v := range regs {
			if regs[v], _, err = trustedparty.RegisterNode(params, network.NodeID(v+1)); err != nil {
				return err
			}
		}
		_, err = tp.Setup(regs)
		return err
	})
	if err != nil {
		return err
	}
	out["trustedparty.setup_ms"] = sec * 1e3

	noise := vertex.DefaultNoiseSpec(w.epsilon, prog.Sensitivity, 0)
	sec, _, err = medianCall(150*time.Millisecond, func() error {
		if _, err := prog.UpdateCircuit(w.d); err != nil {
			return err
		}
		_, err := prog.AggregateCircuit(w.n, noise)
		return err
	})
	if err != nil {
		return err
	}
	out["circuit.compile_ms"] = sec * 1e3
	return nil
}

var msgSizes = []struct {
	suffix string
	bytes  int
}{{"64b", 64}, {"64k", 64 << 10}}

// calibHub times one Send+Recv through the in-process hub.
func calibHub(ctx context.Context, _ workload, _ *dstress.Program, out map[string]float64) error {
	hub := network.New()
	a, b := hub.Endpoint(1), hub.Endpoint(2)
	const batch = 200
	for _, sz := range msgSizes {
		payload := make([]byte, sz.bytes)
		sec, _, err := medianCall(60*time.Millisecond, func() error {
			for i := 0; i < batch; i++ {
				if err := a.Send(2, "cal", payload); err != nil {
					return err
				}
				if _, err := b.Recv(ctx, 1, "cal"); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		out["network.ns_per_msg_"+sz.suffix] = sec * 1e9 / batch
	}
	return nil
}

// calibTCP times two loopback tcpnet peers: half a ping-pong round trip
// per message size (what a GMW round waits for), and one-way streaming of
// 64 KiB frames (what a bulk share transfer gets).
func calibTCP(ctx context.Context, _ workload, _ *dstress.Program, out map[string]float64) error {
	a, err := tcpnet.Listen(1, "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := tcpnet.Listen(2, "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer b.Close()
	a.Register(2, b.Addr())
	b.Register(1, a.Addr())

	const batch = 50
	for _, sz := range msgSizes {
		payload := make([]byte, sz.bytes)
		if _, err := rand.Read(payload); err != nil {
			return err
		}
		pingPong := func() error {
			return together(
				func() error {
					for i := 0; i < batch; i++ {
						if err := a.Send(2, "ping", payload); err != nil {
							return err
						}
						if _, err := a.Recv(ctx, 2, "pong"); err != nil {
							return err
						}
					}
					return nil
				},
				func() error {
					for i := 0; i < batch; i++ {
						m, err := b.Recv(ctx, 1, "ping")
						if err != nil {
							return err
						}
						if err := b.Send(1, "pong", m); err != nil {
							return err
						}
					}
					return nil
				})
		}
		sec, _, err := medianCall(150*time.Millisecond, pingPong)
		if err != nil {
			return err
		}
		out["tcpnet.us_per_msg_"+sz.suffix] = sec * 1e6 / (2 * batch)
	}

	payload := make([]byte, 64<<10)
	stream := func() error {
		return together(
			func() error {
				for i := 0; i < batch; i++ {
					if err := a.Send(2, "bulk", payload); err != nil {
						return err
					}
				}
				_, err := a.Recv(ctx, 2, "ack")
				return err
			},
			func() error {
				for i := 0; i < batch; i++ {
					if _, err := b.Recv(ctx, 1, "bulk"); err != nil {
						return err
					}
				}
				return b.Send(1, "ack", nil)
			})
	}
	sec, _, err := medianCall(150*time.Millisecond, stream)
	if err != nil {
		return err
	}
	out["tcpnet.mb_per_s"] = float64(batch*len(payload)) / (1 << 20) / sec
	return nil
}

// calibLedger times the per-tenant epsilon charge serve.Service makes at
// admission.
func calibLedger(_ context.Context, _ workload, _ *dstress.Program, out map[string]float64) error {
	ledger := dp.NewLedger(math.Inf(1))
	const batch = 1000
	sec, _, err := medianCall(20*time.Millisecond, func() error {
		for i := 0; i < batch; i++ {
			if err := ledger.Spend("tenant", 1e-9); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	out["dp.ledger_spend_ns"] = sec * 1e9 / batch
	return nil
}
