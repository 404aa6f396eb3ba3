package cost

import (
	"context"
	"math/big"
	"sync"
	"time"

	"dstress/internal/circuit"
	"dstress/internal/gmw"
	"dstress/internal/group"
	"dstress/internal/network"
	"dstress/internal/ot"
)

// Calibrate measures the model's per-unit costs on the current machine:
// one group exponentiation, and the GMW online AND-gate throughput for a
// 3-party session over dealer OTs. It mirrors the paper's methodology of
// deriving Figure 6 from microbenchmark measurements rather than guesses.
func Calibrate(g group.Group) Calibration {
	cal := DefaultCalibration()

	// Exponentiation cost: median of a short burst. Measured as a
	// variable-base ScalarMul because the model prices every transfer
	// role with one ExpNs and the cold variable-base operations dominate
	// it (receiver decryption C1^x, ephemeral adjustment C1^r); a
	// ScalarBaseMul figure would undercharge them now that generator
	// exponentiations run off the fixed-base table.
	k := big.NewInt(0xfedcba9876543)
	h := g.ScalarBaseMul(big.NewInt(0x1337))
	const expIters = 20
	start := time.Now()
	for i := 0; i < expIters; i++ {
		g.ScalarMul(h, k)
	}
	cal.ExpNs = float64(time.Since(start).Nanoseconds()) / expIters

	// AND-gate throughput: evaluate a multiplier circuit with a 3-party
	// session and divide by gates × pairs-per-party.
	b := circuit.NewBuilder()
	x := b.InputWord(32)
	y := b.InputWord(32)
	b.OutputWord(b.Mul(x, y))
	c := b.Build()

	net := network.New()
	parties := []network.NodeID{1, 2, 3}
	broker := ot.NewDealerBroker()
	ps := make([]*gmw.Party, 3)
	for i := range ps { // dealer OTs need no handshake: join one by one
		ps[i], _ = gmw.NewParty(context.Background(), gmw.Config{
			Parties: parties, Index: i, Transport: net.Endpoint(parties[i]), Tag: "cal", OT: gmw.DealerOT{Broker: broker},
		})
	}

	in := make([]uint8, c.NumInputs)
	start = time.Now()
	const evals = 3
	for e := 0; e < evals; e++ {
		var wg sync.WaitGroup
		for _, p := range ps {
			if p == nil {
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, _ = p.Evaluate(context.Background(), c, in)
			}()
		}
		wg.Wait()
	}
	elapsed := time.Since(start)
	// Per-party pair cost: each party handles 2 peers; wall time covers
	// all three in parallel, so time/(gates·k) approximates the pair cost.
	cal.ANDGatePairNs = float64(elapsed.Nanoseconds()) / float64(evals) / float64(c.NumAnd) / 2
	cal.RoundLatencyNs = float64(elapsed.Nanoseconds()) / float64(evals) / float64(c.Depth()) / 4
	return cal
}
