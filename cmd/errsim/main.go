// Command errsim regenerates the tables and figures of "Fair and
// Efficient Packet Scheduling in Wormhole Networks" (Kanhere, Parekh
// & Sethu, IPDPS 2000) from the reproduction library.
//
// Usage:
//
//	errsim -exp table1|fig4a|fig4b|fig4c|fig4d|fig4|fig5a|fig5b|fig5|fig6|occupancy|screset [flags]
//
// Paper-scale parameters are the defaults; -cycles scales the main
// run length down for quick looks. Output is an ASCII rendering of
// the table/figure followed by a CSV block for external plotting.
// -progress renders a live jobs-completed line on stderr, -manifest
// appends a JSONL run manifest (schema, command line, seeds, workers,
// cycles, wall time, throughput) to the given path, and -pprof serves
// net/http/pprof plus an expvar snapshot of the obs registry for
// profiling long sweeps live.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/trace"
)

// renderer is the common shape of every experiment result.
type renderer interface {
	Render(io.Writer) error
}

// textResult renders a fixed message (checkpoint-merge mode).
type textResult string

func (t textResult) Render(w io.Writer) error {
	_, err := io.WriteString(w, string(t))
	return err
}

// emit writes a result as its ASCII/CSV rendering or, with -json, as
// an indented JSON document of the full result struct.
func emit(w io.Writer, res renderer, asJSON bool) error {
	if !asJSON {
		return res.Render(w)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}

func main() {
	var (
		exp       = flag.String("exp", "table1", "experiment: table1, fig4a..d, fig4, fig5a, fig5b, fig5, fig6, fig6ext, occupancy, screset, weighted, gap, nocsweep, nocsweep-torus, parkinglot, lr, bounds, scale")
		cycles    = flag.Int64("cycles", 0, "override the experiment's main run length in cycles (0 = paper scale)")
		seed      = flag.Uint64("seed", 1, "random seed")
		intervals = flag.Int("intervals", 0, "fig6: random intervals to average over (0 = paper's 10000)")
		repeats   = flag.Int("repeats", 0, "fig5: seeds to average each point over (0 = default 5)")
		parallel  = flag.Int("parallel", runtime.GOMAXPROCS(0), "worker pool size for independent simulation jobs (1 = serial; output is identical for any value)")
		jsonOut   = flag.Bool("json", false, "emit the result as JSON instead of ASCII/CSV")
		progress  = flag.Bool("progress", false, "render a jobs-completed progress line on stderr")
		quiet     = flag.Bool("quiet", false, "suppress the progress line (overrides -progress)")
		manifest  = flag.String("manifest", "", "append a JSONL run manifest to this path (\"\" = no manifest)")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof and the obs registry expvar on this address (e.g. localhost:6060)")
		faults    = flag.String("faults", "", "fault-injection spec, e.g. \"stall(flow=0,at=1000,dur=500);drop(router=0,port=1,p=0.01)\" (\"\" = fault-free; see internal/fault)")
		checkInv  = flag.Bool("check", false, "enable the runtime invariant checker (ERR Lemma 1, flit conservation, FIFO, deadlock watchdog); violations fail the run with a cycle-stamped report")
		ckptPath  = flag.String("checkpoint", "", "record completed grid jobs to this JSONL file for crash-resilient sweeps (\"\" = off)")
		resume    = flag.Bool("resume", false, "resume from -checkpoint, skipping jobs it already holds; aggregate output is byte-identical to an uninterrupted run")
		traceOut  = flag.String("trace-out", "", "write sampled packet spans (inject -> departure per grid job) as Chrome trace-event JSON (Perfetto-loadable) to this file; with -parallel > 1 track numbering follows job completion order")
		traceSamp = flag.Int("trace-sample", 64, "with -trace-out: trace one in this many packets (1 = every packet)")
		shard     = flag.Int("shard", 0, "with -of N: run only grid jobs with index %% N == shard (scale sweeps split across processes; see -checkpoint)")
		shardOf   = flag.Int("of", 0, "split the grid round-robin across this many processes (0 = no sharding); each process needs its own -checkpoint, merged afterwards by a -resume run")
		mergeCkpt = flag.String("merge", "", "comma-separated per-shard checkpoint files to merge into -checkpoint (scale only); merge then rerun with -resume for the full result")
	)
	flag.Parse()
	if *resume && *ckptPath == "" {
		fmt.Fprintln(os.Stderr, "errsim: -resume requires -checkpoint")
		os.Exit(1)
	}
	if *pprofAddr != "" {
		addr, err := obs.ServeDebug(*pprofAddr, obs.Default())
		if err != nil {
			fmt.Fprintf(os.Stderr, "errsim: pprof: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "errsim: pprof on http://%s/debug/pprof/ (registry at /debug/vars)\n", addr)
	}
	var prog exec.Progress
	if *progress && !*quiet {
		prog = obs.NewProgress(os.Stderr, *exp)
	}
	// A collector is only worth its (small) per-cycle cost when
	// something consumes the registry: the manifest snapshot or the
	// expvar endpoint. Sized to the engine's flow-id ceiling so one
	// collector serves every grid job regardless of flow count.
	var col *obs.Collector
	if *manifest != "" || *pprofAddr != "" {
		col = obs.NewCollector(obs.Default(), 254)
	}
	rb := experiments.Robustness{
		Faults:     *faults,
		Check:      *checkInv,
		Checkpoint: *ckptPath,
		Resume:     *resume,
	}
	var et *trace.EngineTrace
	if *traceOut != "" {
		et = trace.NewEngineTrace(rng.Derive(*seed, 0x7ace), *traceSamp, 1<<20)
	}
	start := time.Now()
	var mergeSrcs []string
	if *mergeCkpt != "" {
		mergeSrcs = strings.Split(*mergeCkpt, ",")
	}
	res, err := run(*exp, *cycles, *seed, *intervals, *repeats, *parallel, prog, col, rb, et, *shard, *shardOf, mergeSrcs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "errsim: %v\n", err)
		os.Exit(1)
	}
	wall := time.Since(start)
	if et != nil {
		f, err := os.Create(*traceOut)
		if err == nil {
			err = trace.WriteChrome(f, et.Records(), nil)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "errsim: trace: %v\n", err)
			os.Exit(1)
		}
		if d := et.Dropped(); d > 0 {
			fmt.Fprintf(os.Stderr, "errsim: trace: %d spans overwritten (lower -trace-sample or shorten the run)\n", d)
		}
	}
	if err := emit(os.Stdout, res, *jsonOut); err != nil {
		fmt.Fprintf(os.Stderr, "errsim: %v\n", err)
		os.Exit(1)
	}
	if *manifest != "" {
		info := obs.RunInfo{Experiment: *exp, Workers: exec.Workers(*parallel)}
		if mi, ok := res.(interface{ RunInfo() obs.RunInfo }); ok {
			info = mi.RunInfo()
		}
		m := obs.NewManifest(info, "", wall).
			WithFaults(*faults, obs.Default().Counter("check.violations").Value()).
			WithMetrics(obs.Default())
		if err := m.AppendTo(*manifest); err != nil {
			fmt.Fprintf(os.Stderr, "errsim: manifest: %v\n", err)
			os.Exit(1)
		}
	}
}

func run(exp string, cycles int64, seed uint64, intervals, repeats, parallel int, prog exec.Progress, col *obs.Collector, rb experiments.Robustness, et *trace.EngineTrace, shard, of int, mergeSrcs []string) (renderer, error) {
	if (of > 0 || len(mergeSrcs) > 0) && exp != "scale" {
		return nil, fmt.Errorf("experiment %q does not support -shard/-of/-merge (scale only)", exp)
	}
	switch exp {
	case "table1":
		p := experiments.DefaultTable1Params()
		p.Fig4.Seed = seed
		p.Workers = parallel
		p.Progress = prog
		p.Fig4.Collector = col
		p.Fig4.Trace = et
		p.Fig4.Robustness = rb
		if cycles > 0 {
			p.Fig4.Cycles = cycles
		}
		return experiments.RunTable1(p)

	case "fig4", "fig4a", "fig4b", "fig4c", "fig4d":
		panel := "all"
		if len(exp) == 5 {
			panel = exp[4:]
		}
		p := experiments.DefaultFig4Params()
		p.Seed = seed
		p.Workers = parallel
		p.Progress = prog
		p.Collector = col
		p.Trace = et
		p.Robustness = rb
		if cycles > 0 {
			p.Cycles = cycles
		}
		return experiments.RunFig4(p, panel)

	case "fig5", "fig5a", "fig5b":
		panel := "all"
		if len(exp) == 5 {
			panel = exp[4:]
		}
		p := experiments.DefaultFig5Params()
		p.Seed = seed
		p.Workers = parallel
		p.Progress = prog
		p.Collector = col
		p.Trace = et
		p.Robustness = rb
		if cycles > 0 {
			p.BurstCycles = cycles
		}
		if repeats > 0 {
			p.Repeats = repeats
		}
		return experiments.RunFig5(p, panel)

	case "fig6":
		p := experiments.DefaultFig6Params()
		p.Seed = seed
		p.Workers = parallel
		p.Progress = prog
		p.Collector = col
		p.Trace = et
		p.Robustness = rb
		if cycles > 0 {
			p.Cycles = cycles
		}
		if intervals > 0 {
			p.Intervals = intervals
		}
		return experiments.RunFig6(p)

	case "fig6ext":
		p := experiments.DefaultFig6ExtParams()
		p.Seed = seed
		p.Workers = parallel
		p.Progress = prog
		p.Collector = col
		p.Trace = et
		p.Robustness = rb
		if cycles > 0 {
			p.Cycles = cycles
		}
		if intervals > 0 {
			p.Intervals = intervals
		}
		return experiments.RunFig6Ext(p)

	case "occupancy":
		if rb != (experiments.Robustness{}) {
			return nil, fmt.Errorf("experiment %q does not support -faults/-check/-checkpoint", exp)
		}
		p := experiments.DefaultAblationOccupancyParams()
		p.Seed = seed
		if cycles > 0 {
			p.Cycles = cycles
		}
		return experiments.RunAblationOccupancy(p)

	case "screset":
		if rb != (experiments.Robustness{}) {
			return nil, fmt.Errorf("experiment %q does not support -faults/-check/-checkpoint", exp)
		}
		p := experiments.DefaultAblationSurplusResetParams()
		p.Seed = seed
		if cycles > 0 {
			p.Cycles = cycles
		}
		return experiments.RunAblationSurplusReset(p)

	case "weighted":
		p := experiments.DefaultWeightedParams()
		p.Seed = seed
		p.Workers = parallel
		p.Progress = prog
		p.Collector = col
		p.Trace = et
		p.Robustness = rb
		if cycles > 0 {
			p.Cycles = cycles
		}
		return experiments.RunWeighted(p)

	case "gap":
		p := experiments.DefaultGapParams()
		p.Seed = seed
		p.Workers = parallel
		p.Progress = prog
		p.Robustness = rb
		if cycles > 0 {
			p.Cycles = cycles
		}
		return experiments.RunGap(p)

	case "nocsweep", "nocsweep-torus":
		p := experiments.DefaultNoCSweepParams()
		p.Seed = seed
		p.Workers = parallel
		p.Progress = prog
		p.Robustness = rb
		p.Torus = exp == "nocsweep-torus"
		if cycles > 0 {
			p.WarmCycles = cycles
		}
		return experiments.RunNoCSweep(p)

	case "parkinglot":
		p := experiments.DefaultParkingLotParams()
		p.Workers = parallel
		p.Progress = prog
		p.Seed = seed
		p.Robustness = rb
		if cycles > 0 {
			p.Cycles = cycles
		}
		return experiments.RunParkingLot(p)

	case "bounds":
		p := experiments.DefaultBoundsParams()
		p.Seed = seed
		p.Workers = parallel
		p.Progress = prog
		p.Robustness = rb
		if cycles > 0 {
			p.Cycles = cycles
		}
		return experiments.RunBounds(p)

	case "scale":
		p := experiments.DefaultScaleParams()
		p.Seed = seed
		p.Workers = parallel
		p.Progress = prog
		p.Robustness = rb
		p.Shard, p.Of = shard, of
		if cycles > 0 {
			// Fixed per-point cycle count instead of the router-cycle
			// budget, and a warm-up capped at the same count (quick
			// runs, CI smoke).
			p.RouterCycles = 0
			p.MinCycles = cycles
			p.MaxWarmCycles = cycles
		}
		if len(mergeSrcs) > 0 {
			// Merge per-shard checkpoints into -checkpoint and stop;
			// a -resume run against the merged file renders the full
			// sweep without re-executing anything.
			if p.Checkpoint == "" {
				return nil, fmt.Errorf("-merge requires -checkpoint (the merge destination)")
			}
			sig, err := exec.Signature("scale", p)
			if err != nil {
				return nil, err
			}
			n, err := exec.MergeCheckpoints(p.Checkpoint, sig, mergeSrcs...)
			if err != nil {
				return nil, err
			}
			return textResult(fmt.Sprintf("merged %d records from %d shard checkpoints into %s\n",
				n, len(mergeSrcs), p.Checkpoint)), nil
		}
		return experiments.RunScale(p)

	case "lr":
		if rb != (experiments.Robustness{}) {
			return nil, fmt.Errorf("experiment %q does not support -faults/-check/-checkpoint", exp)
		}
		p := experiments.DefaultLRParams()
		p.Seed = seed
		if cycles > 0 {
			p.Cycles = cycles
		}
		return experiments.RunLR(p)

	default:
		return nil, fmt.Errorf("unknown experiment %q", exp)
	}
}
