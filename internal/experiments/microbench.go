package experiments

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"dstress/internal/circuit"
	"dstress/internal/gmw"
	"dstress/internal/group"
	"dstress/internal/network"
	"dstress/internal/ot"
	"dstress/internal/risk"
	"dstress/internal/secretshare"
	"dstress/internal/vertex"
)

// riskCfg is the circuit configuration shared by the experiment circuits.
func riskCfg() risk.CircuitConfig {
	return risk.CircuitConfig{Width: circuitWidth, Unit: 1e6}
}

// noiseSpec returns the noising-circuit spec per scale. The full spec
// approximates §4.5's parameters (ε = 0.23, sensitivity 20 in units of T);
// the quick spec keeps the same structure two orders of magnitude smaller.
func noiseSpec(full bool) vertex.NoiseSpec {
	if full {
		return vertex.NoiseSpec{Alpha: 0.98855, Trials: 1024, CoinBits: 24}
	}
	return vertex.NoiseSpec{Alpha: 0.9, Trials: 64, CoinBits: 16}
}

// mpcMeasurement is one microbenchmark cell.
type mpcMeasurement struct {
	elapsed      time.Duration
	avgNodeBytes float64
}

// measureBlockMPC times one GMW evaluation of c with blockSize parties over
// dealer OTs (zero input shares — GMW cost is data-independent). A first,
// untimed evaluation pays the session's lazy set-up (circuit layout, round
// buffers) and gives the per-node traffic of one evaluation; the time is
// the median of the next three, so one scheduler stall on a loaded machine
// does not decide a cell of a millisecond or two.
func measureBlockMPC(g group.Group, blockSize int, c *circuit.Circuit) mpcMeasurement {
	net := network.New()
	parties := make([]network.NodeID, blockSize)
	for i := range parties {
		parties[i] = network.NodeID(i + 1)
	}
	// Dealer OTs need no handshake, so the parties can join one by one.
	broker := ot.NewDealerBroker()
	ps := make([]*gmw.Party, blockSize)
	for i := range ps {
		ps[i], _ = gmw.NewParty(context.Background(), gmw.Config{
			Parties: parties, Index: i, Transport: net.Endpoint(parties[i]), Tag: "micro", OT: gmw.DealerOT{Broker: broker},
		})
	}
	in := make([]uint8, c.NumInputs)
	eval := func() time.Duration {
		start := time.Now()
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
		return time.Since(start)
	}
	eval()
	bytes := net.AvgNodeBytes()
	times := []time.Duration{eval(), eval(), eval()}
	slices.Sort(times)
	return mpcMeasurement{elapsed: times[1], avgNodeBytes: bytes}
}

// measureInit times the initialization step: the owner splits its state
// plus D no-op messages into blockSize shares and distributes them.
func measureInit(blockSize, d, stateBits int) mpcMeasurement {
	net := network.New()
	owner := net.Endpoint(1)
	start := time.Now()
	st := secretshare.SplitXOR(12345, blockSize, stateBits)
	for m := 1; m < blockSize; m++ {
		payload := make([]byte, 8*(1+d))
		_ = st
		_ = owner.Send(network.NodeID(m+1), "init", payload)
	}
	for m := 1; m < blockSize; m++ {
		_, _ = net.Endpoint(network.NodeID(m+1)).Recv(context.Background(), 1, "init")
	}
	return mpcMeasurement{elapsed: time.Since(start), avgNodeBytes: net.AvgNodeBytes()}
}

// microCircuits builds the five benchmark circuits of §5.2 for the given
// degree bound and aggregation population.
type microCircuits struct {
	en, egj, agg, noise *circuit.Circuit
}

func buildMicroCircuits(o Options, d, aggN int) (microCircuits, error) {
	cfg := riskCfg()
	enProg := risk.ENProgram(cfg, 1e9, 0.1)
	egjProg := risk.EGJProgram(cfg, 1e9, 0.1)
	var mc microCircuits
	var err error
	if mc.en, err = enProg.UpdateCircuit(d); err != nil {
		return mc, err
	}
	if mc.egj, err = egjProg.UpdateCircuit(d); err != nil {
		return mc, err
	}
	if mc.agg, err = enProg.AggregateCircuit(aggN, vertex.NoiseSpec{}); err != nil {
		return mc, err
	}
	// Standalone noising circuit: random bits in, noise word out.
	spec := noiseSpec(o.Full)
	b := circuit.NewBuilder()
	rnd := b.InputWord(spec.RandBits())
	b.OutputWord(spec.Build(b, rnd, enProg.AggBits))
	mc.noise = b.Build()
	return mc, nil
}

// Fig3Left reproduces Figure 3 (left): MPC computation time for the five
// operation types across block sizes.
func Fig3Left(o Options) *Table {
	g := o.group()
	d, aggN := o.microDegree(), o.microAggN()
	mc, err := buildMicroCircuits(o, d, aggN)
	t := &Table{
		ID:     "E1",
		Title:  fmt.Sprintf("Figure 3 (left): MPC time per step vs block size (D=%d, N=%d)", d, aggN),
		Header: []string{"block", "init", "EN step", "EGJ step", "aggregation", "noising"},
	}
	if err != nil {
		t.Notes = append(t.Notes, "circuit build failed: "+err.Error())
		return t
	}
	for _, bs := range o.blockSizes() {
		init := measureInit(bs, d, circuitWidth)
		en := measureBlockMPC(g, bs, mc.en)
		egj := measureBlockMPC(g, bs, mc.egj)
		agg := measureBlockMPC(g, bs, mc.agg)
		noise := measureBlockMPC(g, bs, mc.noise)
		t.Add(fmt.Sprint(bs), durStr(init.elapsed), durStr(en.elapsed),
			durStr(egj.elapsed), durStr(agg.elapsed), durStr(noise.elapsed))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("AND gates: EN=%d EGJ=%d agg=%d noise=%d", mc.en.NumAnd, mc.egj.NumAnd, mc.agg.NumAnd, mc.noise.NumAnd),
		"paper shape: linear in block size (GMW per-node work ∝ k)",
		"initialization is local share-splitting here (Wysteria generated shares in-MPC), so its bar is near zero")
	return t
}

// Fig3Right reproduces Figure 3 (right): step time vs degree bound at fixed
// block size, and aggregation time vs population.
func Fig3Right(o Options) *Table {
	g := o.group()
	bs := o.blockSizes()[len(o.blockSizes())-1] // B=20 in the paper
	cfg := riskCfg()
	enProg := risk.ENProgram(cfg, 1e9, 0.1)
	egjProg := risk.EGJProgram(cfg, 1e9, 0.1)
	t := &Table{
		ID:     "E2",
		Title:  fmt.Sprintf("Figure 3 (right): MPC time vs D and N (block size %d)", bs),
		Header: []string{"sweep", "value", "init", "EN step", "EGJ step", "aggregation"},
	}
	for _, d := range o.degrees() {
		en, err1 := enProg.UpdateCircuit(d)
		egj, err2 := egjProg.UpdateCircuit(d)
		if err1 != nil || err2 != nil {
			t.Notes = append(t.Notes, fmt.Sprintf("D=%d: circuit build failed", d))
			continue
		}
		init := measureInit(bs, d, circuitWidth)
		mEN := measureBlockMPC(g, bs, en)
		mEGJ := measureBlockMPC(g, bs, egj)
		t.Add("degree D", fmt.Sprint(d), durStr(init.elapsed), durStr(mEN.elapsed), durStr(mEGJ.elapsed), "-")
	}
	for _, n := range o.aggSizes() {
		agg, err := enProg.AggregateCircuit(n, vertex.NoiseSpec{})
		if err != nil {
			continue
		}
		m := measureBlockMPC(g, bs, agg)
		t.Add("agg N", fmt.Sprint(n), "-", "-", "-", durStr(m.elapsed))
	}
	t.Notes = append(t.Notes, "paper shape: roughly linear in D and in N (circuit size ∝ inputs)")
	return t
}

// Fig4Traffic reproduces Figure 4: per-node traffic of the five MPC
// circuits across block sizes.
func Fig4Traffic(o Options) *Table {
	g := o.group()
	d, aggN := o.microDegree(), o.microAggN()
	mc, err := buildMicroCircuits(o, d, aggN)
	t := &Table{
		ID:     "E4",
		Title:  fmt.Sprintf("Figure 4: per-node MPC traffic vs block size (D=%d, N=%d)", d, aggN),
		Header: []string{"block", "init", "EN step", "EGJ step", "aggregation", "noising"},
	}
	if err != nil {
		t.Notes = append(t.Notes, "circuit build failed: "+err.Error())
		return t
	}
	for _, bs := range o.blockSizes() {
		init := measureInit(bs, d, circuitWidth)
		en := measureBlockMPC(g, bs, mc.en)
		egj := measureBlockMPC(g, bs, mc.egj)
		agg := measureBlockMPC(g, bs, mc.agg)
		noise := measureBlockMPC(g, bs, mc.noise)
		t.Add(fmt.Sprint(bs), kbStr(init.avgNodeBytes), kbStr(en.avgNodeBytes),
			kbStr(egj.avgNodeBytes), kbStr(agg.avgNodeBytes), kbStr(noise.avgNodeBytes))
	}
	t.Notes = append(t.Notes, "paper shape: per-node traffic ∝ block size; noising circuit is the largest")
	return t
}

func durStr(d time.Duration) string {
	return d.Round(10 * time.Microsecond).String()
}

func kbStr(b float64) string {
	return fmt.Sprintf("%.1f KB", b/1024)
}
