// Command perfbench is the repository's benchmark. It drives the NoC
// simulator (noc, wormhole), the single-server engine grid (engine,
// sched, core, exec) and the live HTTP front end (serve) from
// outside, through their public calls, on four seeded workloads:
//
//	torus-saturated  128x128 torus past saturation (tiled parallel commit)
//	mesh-bursty      16x16 mesh, short bursts between long idle gaps (time skip)
//	err-sweep        ERR / weighted ERR / DRR x {2^10, 2^18} flows via exec.Run
//	serve-overload   2x-capacity elephant-vs-mice open loop into ServeHTTP
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload torus-saturated --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the last stdout line holds the end-to-end metrics of
// an untraced run. With --trace 1 the workload runs untraced and then
// traced on the same seed; the last line holds the per-layer metrics,
// and the run fails its checks if the two runs' simulated results
// differ. Every workload makes its inputs from --seed alone.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// env is what one workload run is given.
type env struct {
	seed    uint64
	seconds float64 // host-time measuring window
	small   bool    // smoke-test sizes
	tr      *tracer // nil for the untraced run
	heap    *heapSampler
}

// outcome is what one workload run measured.
type outcome struct {
	attempted, failed int64
	// problems lists failed correctness checks; any entry makes the
	// result incorrect.
	problems []string
	// host holds host-time metrics that need no tracing: the
	// end-to-end metrics and the cheap per-layer ones.
	host map[string]float64
	// layer holds the metrics only the traced run measures.
	layer map[string]float64
	// sim holds results in simulated units, deterministic per seed:
	// the traced run must reproduce them exactly.
	sim map[string]float64
	// throughput is the workload's main host-time rate, the base of
	// trace_overhead_frac.
	throughput float64
}

func newOutcome() *outcome {
	return &outcome{host: map[string]float64{}, layer: map[string]float64{}, sim: map[string]float64{}}
}

func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(env) (*outcome, error){
	"torus-saturated": runTorus,
	"mesh-bursty":     runBursty,
	"err-sweep":       runErrSweep,
	"serve-overload":  runServe,
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: torus-saturated, mesh-bursty, err-sweep or serve-overload")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "host seconds to measure")
	traced := flag.Int("trace", 0, "0: end-to-end metrics of an untraced run; 1: per-layer metrics of a traced run")
	flag.Parse()

	if _, ok := workloads[*name]; !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad flags (workload %q, seconds %g, trace %d)\n", *name, *seconds, *traced)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	host := readHost()
	hostJSON, _ := json.Marshal(host)
	fmt.Printf("host %s\n", hostJSON)

	e := env{seed: *seed, seconds: *seconds}
	res, problems, err := evaluate(*name, e, *traced == 1, filepath.Join(".bench_build", "spans"), host)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	for _, p := range problems {
		fmt.Printf("check failed: %s\n", p)
	}
	printReport(res)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// evaluate runs workload name untraced and, when traced, again with
// tracing on, and assembles the result: the end-to-end metrics of the
// untraced run, or the per-layer metrics of the pair. It returns the
// failed checks alongside.
func evaluate(name string, e env, traced bool, spansDir string, host hostInfo) (resultOut, []string, error) {
	run := workloads[name]
	base, err := measure(run, e)
	if err != nil {
		return resultOut{}, nil, err
	}
	res := resultOut{Attempted: base.attempted, Failed: base.failed, Metrics: map[string]metricOut{}}
	problems := base.problems
	if !traced {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricOut{finite(base.host[m.name]), m.unit}
		}
	} else {
		e.tr = newTracer()
		tr, err := measure(run, e)
		if err != nil {
			return resultOut{}, nil, fmt.Errorf("traced run: %w", err)
		}
		problems = append(problems, tr.problems...)
		problems = append(problems, diffSim(base.sim, tr.sim)...)
		res.Attempted += tr.attempted
		res.Failed += tr.failed
		vals := map[string]float64{}
		for _, m := range []map[string]float64{base.sim, base.host, tr.layer} {
			for k, v := range m {
				vals[k] = v
			}
		}
		vals["failed_frac"] = float64(res.Failed) / math.Max(1, float64(res.Attempted))
		if tr.throughput > 0 {
			vals["trace_overhead_frac"] = base.throughput/tr.throughput - 1
		}
		for _, m := range perLayer {
			res.Metrics[m.name] = metricOut{finite(vals[m.name]), m.unit}
		}
		if err := e.tr.write(spansDir, name, e.seed, host); err != nil {
			problems = append(problems, fmt.Sprintf("writing spans: %v", err))
		}
	}
	if len(problems) > 0 && res.Failed == 0 {
		res.Failed = int64(len(problems))
	}
	res.Correct = len(problems) == 0 && res.Failed == 0
	return res, problems, nil
}

// measure runs one workload with the heap sampler around it.
func measure(run func(env) (*outcome, error), e env) (*outcome, error) {
	runtime.GC()
	e.heap = &heapSampler{}
	o, err := run(e)
	peak := e.heap.stop()
	if err != nil {
		return nil, err
	}
	o.host["peak_heap_mb"] = peak / (1 << 20)
	return o, nil
}

// diffSim reports every simulated result the traced run changed.
func diffSim(base, traced map[string]float64) []string {
	var out []string
	for k, v := range base {
		if t, ok := traced[k]; !ok || t != v {
			out = append(out, fmt.Sprintf("traced run changed %s: %v -> %v", k, v, traced[k]))
		}
	}
	sort.Strings(out)
	return out
}

// logf prints a progress line to standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// finite maps NaN and infinities, which JSON cannot carry, to 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// printReport prints one "name value unit" line per metric, sorted,
// ahead of the JSON result line.
func printReport(res resultOut) {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, k := range names {
		m := res.Metrics[k]
		fmt.Fprintf(&b, "%-44s %.6g %s\n", k, m.Value, m.Unit)
	}
	fmt.Print(b.String())
}
