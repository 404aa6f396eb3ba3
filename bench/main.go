// Command bench is the repository's benchmark: four named workloads, the
// end-to-end metrics a user of a DStress deployment sees (query time,
// throughput, set-up time, traffic per node), and a per-layer ledger taken
// from outside the program in a separate traced pass. BENCHMARK.json at the
// repository root names every metric and workload; README.md in this
// directory explains them.
//
//	bash bench/run.sh -seed 1                     # every workload, both passes
//	bash bench/run.sh -seed 1 -repeat 2           # twice, and do the two agree?
//	bash bench/run.sh --workload en-sim --seed 3 --seconds 15 --trace 0
//
// It drives the system only through public functions — the dstress facade,
// serve.Service.Do, and the exported functions of the internal layers —
// and claims no gain: it is the ruler later changes are measured with.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"text/tabwriter"
	"time"
)

// logw receives progress and diagnostics; results go to standard output.
var logw io.Writer = os.Stderr

// machine records the facts a number cannot be read without.
type machine struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	Link       string `json:"link"`
}

// result is the document written to <out>/result.json.
type result struct {
	Machine  machine `json:"machine"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Seedable string  `json:"seedable"`
	// Repetitions holds, per run of the suite, one pass result per
	// workload and pass.
	Repetitions [][]passResult `json:"repetitions"`
	Verdicts    []verdict      `json:"verdicts,omitempty"`
}

const seedableNote = "the seed fixes topology and balance sheets; protocol randomness (shares, OT, ElGamal, noise) is crypto/rand and is not seedable"

func main() {
	var (
		seed    = flag.Int64("seed", 1, "seed of the graph and balance-sheet generators (protocol randomness is crypto/rand and not seedable)")
		name    = flag.String("workload", "", "run only this workload (default: all)")
		seconds = flag.Float64("seconds", 15, "length of each workload's timed window")
		trace   = flag.Int("trace", -1, "0: end-to-end pass only; 1: traced per-layer pass only; default: both")
		noTrace = flag.Bool("no-trace", false, "skip the traced pass (same as -trace 0)")
		outDir  = flag.String("out", filepath.Join("bench", "out"), "directory for result.json and trace-<workload>.json")
		repeat  = flag.Int("repeat", 1, "run the suite this many times and report whether the runs agree within each metric's bound")
		smoke   = flag.Bool("smoke", false, "plumbing check: tiny sizes, one query per workload and pass")
	)
	flag.Parse()
	if *noTrace {
		*trace = 0
	}
	run := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(logw, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		run = []workload{w}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	driven := *name != "" && *trace >= 0 // one workload, one pass: the driver's call
	if driven {
		// The driver gives such a run 180 s: abort a wedged one before
		// that, through the context plumbing.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(*repeat)*170*time.Second)
		defer cancel()
	}

	res := result{
		Machine: machine{
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			OS: runtime.GOOS, Arch: runtime.GOARCH, Link: "loopback (in-process hub and 127.0.0.1 TCP; no real link)",
		},
		Seed: *seed, Seconds: *seconds, Seedable: seedableNote,
	}
	for rep := 1; rep <= *repeat; rep++ {
		passes, err := runSuite(ctx, run, *seed, *seconds, *trace, *smoke, *outDir)
		if err != nil {
			fmt.Fprintf(logw, "bench: %v\n", err)
			os.Exit(1)
		}
		res.Repetitions = append(res.Repetitions, passes)
	}
	if *repeat > 1 {
		res.Verdicts = compareRepetitions(res.Repetitions)
	}

	printTable(os.Stdout, res)
	if err := writeJSON(filepath.Join(*outDir, "result.json"), res); err != nil {
		fmt.Fprintf(logw, "bench: %v\n", err)
		os.Exit(1)
	}
	attempted, failed := 0, 0
	for _, passes := range res.Repetitions {
		for _, p := range passes {
			attempted += p.Attempted
			failed += p.Failed
		}
	}
	if driven {
		printContractLine(os.Stdout, res.Repetitions[len(res.Repetitions)-1], attempted, failed)
	}
	if failed > 0 {
		fmt.Fprintf(logw, "bench: %d of %d queries failed\n", failed, attempted)
		os.Exit(1)
	}
}

// runSuite runs the chosen passes over the chosen workloads once.
func runSuite(ctx context.Context, run []workload, seed int64, seconds float64, trace int, smoke bool, outDir string) ([]passResult, error) {
	var passes []passResult
	for _, w := range run {
		if smoke {
			w = smokeSized(w)
			seconds = 0
		}
		if trace != 1 {
			fmt.Fprintf(logw, "%s: end-to-end pass (tracing off, %gs window)\n", w.Name, seconds)
			p, err := runUntraced(ctx, w, seed, seconds, !smoke)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.Name, err)
			}
			passes = append(passes, p)
		}
		if trace != 0 {
			fmt.Fprintf(logw, "%s: traced per-layer pass\n", w.Name)
			p, err := runTraced(ctx, w, seed, seconds, smoke, outDir)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.Name, err)
			}
			passes = append(passes, p)
		}
	}
	return passes, nil
}

// printTable prints every metric of the last repetition as
// "name workload value unit n min max" — per-layer rows add which
// end-to-end metric the layer should move, and where — then failed_share
// per workload, and the repetition verdicts if there are any.
func printTable(out io.Writer, res result) {
	m := res.Machine
	fmt.Fprintf(out, "machine: %d cpu, GOMAXPROCS %d, %s %s/%s, %s\n", m.NumCPU, m.GOMAXPROCS, m.GoVersion, m.OS, m.Arch, m.Link)
	fmt.Fprintf(out, "seed %d: %s\n\n", res.Seed, res.Seedable)
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "name\tworkload\tvalue\tunit\tn\tmin\tmax\tmoves")
	moves := make(map[string]string, len(perLayer))
	for _, m := range perLayer {
		moves[m.Name] = m.Moves
	}
	for _, p := range res.Repetitions[len(res.Repetitions)-1] {
		for _, v := range p.Values {
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\t%d\t%.6g\t%.6g\t%s\n", v.Name, p.Workload, v.Value, v.Unit, v.N, v.Min, v.Max, moves[v.Name])
		}
		fmt.Fprintf(tw, "failed_share\t%s\t%.6g\tshare\t%d\t\t\t\n", p.Workload, float64(p.Failed)/float64(max(p.Attempted, 1)), p.Attempted)
	}
	tw.Flush()
	if len(res.Verdicts) > 0 {
		fmt.Fprintf(out, "\n%d repetitions of the same code, per end-to-end metric and workload:\n", len(res.Repetitions))
		tw = tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
		fmt.Fprintln(tw, "name\tworkload\tmedians\tdiffer by\tspread\tbound\tverdict")
		for _, v := range res.Verdicts {
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.2f%%\t%.2f%%\t%.0f%%\t%s\n", v.Name, v.Workload, v.Medians, 100*v.Differ, 100*v.Spread, 100*v.Bound, v.Verdict)
		}
		tw.Flush()
	}
}

// printContractLine prints the single-workload result as one JSON object,
// the last line of standard output.
func printContractLine(out io.Writer, passes []passResult, attempted, failed int) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{failed == 0, attempted, failed, map[string]metric{}}
	for _, p := range passes {
		for _, v := range p.Values {
			line.Metrics[v.Name] = metric{v.Value, v.Unit}
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Fprintf(out, "%s\n", data)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
