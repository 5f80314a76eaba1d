package main

import (
	"math"
	"math/bits"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// metricSpec names one printed metric and its unit. The lists below
// must match BENCHMARK.json (the smoke test checks that they do).
type metricSpec struct{ name, unit string }

// endToEnd are printed by every workload's untraced run. Each workload
// gives them its own unit of work (see README.md): packets_per_s
// counts delivered NoC packets, scheduled engine packets or 200
// responses; latency_p50_ms is the median host time per Mesh.Step
// (torus-saturated), per burst epoch (mesh-bursty), per 4096-cycle
// engine slice (err-sweep) or per mouse request from its due time
// (serve-overload). Tail percentiles are per-layer metrics: on a
// shared 2-CPU host their run-to-run spread exceeds any usable bound.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"peak_heap_mb", "MB"},
	{"packets_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
}

// perLayer are printed by every workload's traced run; a metric of a
// layer the workload does not exercise reads 0.
var perLayer = []metricSpec{
	// Workload-specific end-to-end results.
	{"router_cycles_per_s", "1/s"},
	{"sim_accepted_flits_per_node_cycle", "flits"},
	{"sim_latency_mean_cycles", "cycles"},
	{"sim_delay_p50_cycles", "cycles"},
	{"sim_delay_p99_cycles", "cycles"},
	{"sim_jain_backlogged", "index"},
	{"goodput_rps", "1/s"},
	{"mice_p50_ms", "ms"},
	{"mice_p99_ms", "ms"},
	{"mice_samples", "count"},
	{"failed_frac", "frac"},
	{"trace_overhead_frac", "frac"},
	// noc
	{"noc.step_ns_p50", "ns"},
	{"noc.step_ns_p99", "ns"},
	{"noc.run_epoch_ms_p50", "ms"},
	{"noc.send_ns", "ns"},
	{"noc.cycles_skipped_frac", "frac"},
	{"noc.active_routers_frac", "frac"},
	{"noc.router_computes_per_cycle", "count"},
	{"noc.cross_shard_frac", "frac"},
	{"noc.in_flight_mean", "packets"},
	{"noc.bytes_per_router", "bytes"},
	{"noc.warmup_cycles", "cycles"},
	// wormhole
	{"wormhole.cells_visited_per_compute", "count"},
	{"wormhole.worklist_len_mean", "count"},
	// sched / core
	{"sched.err.next_flow_ns_p50", "ns"},
	{"sched.err.next_flow_ns_p99", "ns"},
	{"sched.err.on_done_ns_p50", "ns"},
	{"sched.err.decisions", "count"},
	{"sched.werr.next_flow_ns_p50", "ns"},
	{"sched.werr.next_flow_ns_p99", "ns"},
	{"sched.werr.on_done_ns_p50", "ns"},
	{"sched.werr.decisions", "count"},
	{"sched.drr.next_flow_ns_p50", "ns"},
	{"sched.drr.next_flow_ns_p99", "ns"},
	{"sched.drr.on_done_ns_p50", "ns"},
	{"sched.drr.decisions", "count"},
	{"sched.arb_share_of_step", "frac"},
	{"core.rounds", "count"},
	{"core.lemma1_headroom_min", "cycles"},
	{"core.active_flows_mean", "flows"},
	// engine
	{"engine.cycle_ns", "ns"},
	{"engine.stall_frac", "frac"},
	{"engine.backlog_flits_mean", "flits"},
	// exec
	{"exec.job_s_p50", "s"},
	{"exec.job_s_max", "s"},
	{"exec.queue_wait_s", "s"},
	{"exec.worker_busy_frac", "frac"},
	{"exec.retries", "count"},
	{"exec.job_errors", "count"},
	// serve
	{"serve.pre_handler_ms_p99", "ms"},
	{"serve.wait_p99_ms", "ms"},
	{"serve.post_handler_us_p99", "us"},
	{"serve.handler_busy_frac", "frac"},
	{"serve.elephant_shed_frac", "frac"},
	{"serve.gen_lag_ms_p99", "ms"},
}

// hist is a log-bucketed histogram of non-negative integers with 16
// sub-buckets per power of two (about 4% relative resolution): cheap
// enough to record every timed call, small enough to keep one per
// scheduler. Not safe for concurrent use.
type hist struct {
	counts [64 * 16]int64
	n      int64
}

func histBucket(v int64) int {
	if v < 16 {
		if v < 0 {
			v = 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 5 // v >> e is in [16, 32)
	return (e+1)*16 + int(uint64(v)>>e) - 16
}

// histLow is the smallest value in bucket b.
func histLow(b int) float64 {
	if b < 16 {
		return float64(b)
	}
	e := b/16 - 1
	return float64(int64(16+b%16) << e)
}

func (h *hist) add(v int64) {
	h.counts[histBucket(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the midpoint of the bucket holding quantile q.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(q * float64(h.n))
	if rank >= h.n {
		rank = h.n - 1
	}
	var cum int64
	for b, c := range h.counts {
		cum += c
		if cum > rank {
			return (histLow(b) + histLow(b+1)) / 2
		}
	}
	return 0
}

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	f := pos - float64(lo)
	return xs[lo]*(1-f) + xs[lo+1]*f
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// jain returns Jain's fairness index of xs: 1 when all are equal.
func jain(xs []float64) float64 {
	var s, s2 float64
	for _, x := range xs {
		s += x
		s2 += x * x
	}
	if s2 == 0 {
		return 0
	}
	return s * s / (float64(len(xs)) * s2)
}

// timeReps builds reps times and returns the last value built and the
// median host seconds of one build — the setup_s measurement. Each
// earlier value is handed to drop (which may be nil) and released
// before the next build, so at most one lives at a time, and each
// build starts on a collected heap, so none pays for its
// predecessors' garbage.
func timeReps[T any](reps int, build func() (T, error), drop func(T)) (T, float64, error) {
	var v T
	ts := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		if i > 0 {
			if drop != nil {
				drop(v)
			}
			var zero T
			v = zero
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		v, err = build()
		ts = append(ts, time.Since(t0).Seconds())
		if err != nil {
			return v, 0, err
		}
	}
	return v, median(ts), nil
}

// heapSampler tracks the peak live heap (bytes marked live by the
// last GC) of a workload run. Workloads record it after forced
// collections at their phase boundaries (settle); those whose peak
// falls inside a concurrent phase also poll it every 10 ms (poll).
type heapSampler struct {
	stopC chan struct{}
	done  chan struct{}
	mu    sync.Mutex
	peak  float64
}

func liveHeap() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// poll starts sampling the live heap every 10 ms until stop.
func (h *heapSampler) poll() {
	h.stopC, h.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(h.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stopC:
				return
			case <-t.C:
				h.note(liveHeap())
			}
		}
	}()
}

func (h *heapSampler) note(v float64) {
	h.mu.Lock()
	h.peak = math.Max(h.peak, v)
	h.mu.Unlock()
}

// settle collects garbage and records the live heap: workloads call
// it at phase boundaries, so the peak does not hinge on when the
// collector happened to run.
func (h *heapSampler) settle() {
	runtime.GC()
	h.note(liveHeap())
}

// stop ends polling, if started, and returns the peak in bytes.
func (h *heapSampler) stop() float64 {
	if h.stopC != nil {
		close(h.stopC)
		<-h.done
	}
	h.settle()
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.peak
}

// hostInfo is the host block printed with every result, read at run
// time.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"git_revision"`
}

func readHost() hostInfo {
	h := hostInfo{
		CPU:        "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Revision:   "unknown (not built in a git checkout)",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Revision = s.Value
			}
		}
		for _, s := range bi.Settings {
			if s.Key == "vcs.modified" && s.Value == "true" {
				h.Revision += "+modified"
			}
		}
	}
	return h
}
