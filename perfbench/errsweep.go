package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/flit"
	"repro/internal/sched"
)

// Sweep traffic shape. Every eighth flow is backlogged: it starts
// with backlogDepth packets and each departure is replaced, topped up
// at least every segMax cycles. The other flows are light: one
// Poisson stream of lightRate packets per cycle picks a light flow
// uniformly, so light flows go idle and reactivate.
const (
	backlogEvery = 8
	backlogDepth = 4
	lightRate    = 0.04 // packets per cycle, about 20% of the link
	segMax       = 16
	sliceCycles  = 4096 // host-latency unit (latency_p50/p99_ms)
	stallProb    = 0.125
	stallMax     = 4
	maxLen       = 64
)

// sweepJob is one cell of the grid: a discipline, a flow count and
// the seed of its arrivals and stalls.
type sweepJob struct {
	disc   string // "err", "werr" or "drr"
	flows  int
	cycles int64
	seed   uint64

	eng    *engine.Engine
	err    *core.ERR // nil for DRR
	st     *callStats
	w      []int64 // weighted ERR's dense weights
	refill []int   // backlogged flows that departed this segment
	res    jobResult
}

// jobResult is what one job measured; everything but the host times
// is simulated and deterministic per seed.
type jobResult struct {
	injected, departed int64
	lightDelay         []int64
	service            []int64 // flits per backlogged flow before the horizon
	maxCost            int64
	maxSC              int64
	rounds             int64
	activeSum, samples float64
	backlogSum         float64
	stalls             int64
	slices             []float64 // host seconds per sliceCycles cycles
	start, end         time.Time
}

func (j *sweepJob) backlogged(flow int) bool { return flow%backlogEvery == 0 }

// build constructs the job's scheduler and engine (timed as setup).
func (j *sweepJob) build(traced bool) error {
	var s sched.Scheduler
	j.err = nil
	switch j.disc {
	case "err":
		j.err = core.New()
		s = j.err
	case "werr":
		j.w = make([]int64, j.flows)
		for f := range j.w {
			j.w[f] = 1 + int64(f/backlogEvery%4)
		}
		j.err = core.NewWeighted(func(f int) int64 { return j.w[f] })
		s = j.err
	case "drr":
		s = sched.NewDRR(maxLen, nil)
	}
	if traced {
		j.st = &callStats{hists: new([3]hist)}
		s = wrapSched(s, j.st)
	}
	j.res = jobResult{service: make([]int64, j.flows/backlogEvery)}
	cfg := engine.Config{
		Flows:     j.flows,
		Scheduler: s,
		OnDeparture: func(p flit.Packet, cycle, occ int64) {
			j.res.departed++
			j.res.maxCost = max(j.res.maxCost, occ)
			if !j.backlogged(p.Flow) {
				j.res.lightDelay = append(j.res.lightDelay, cycle-p.Arrival)
				return
			}
			if cycle < j.cycles {
				j.res.service[p.Flow/backlogEvery] += int64(p.Length)
				j.refill = append(j.refill, p.Flow)
			}
		},
		OnStall: func(int64, int) { j.res.stalls++ },
	}
	if j.err != nil {
		// DRR budgets lengths up front and cannot take a stall model.
		r := rand.New(rand.NewPCG(j.seed, 0x57a1))
		cfg.Stall = engine.StallFunc(func(int) int {
			if r.Float64() < stallProb {
				return 1 + r.IntN(stallMax)
			}
			return 0
		})
	}
	eng, err := engine.NewEngine(cfg)
	j.eng = eng
	return err
}

func (j *sweepJob) inject(r *rand.Rand, flow int) error {
	j.res.injected++
	return j.eng.Inject(flit.Packet{Flow: flow, Length: truncExp(r)})
}

// run is the exec job: it drives the engine for j.cycles cycles with
// the job's own arrivals, then drains it.
func (j *sweepJob) run() error {
	j.res.start = time.Now()
	r := rand.New(rand.NewPCG(j.seed, 0xa771))
	for f := 0; f < j.flows; f += backlogEvery {
		for i := 0; i < backlogDepth; i++ {
			if err := j.inject(r, f); err != nil {
				return err
			}
		}
	}
	nextLight := int64(r.ExpFloat64() / lightRate)
	sliceStart, sliceT := int64(0), time.Now()
	for c := int64(0); c < j.cycles; {
		end := min(c+segMax, nextLight, j.cycles)
		if end > c {
			j.eng.Run(end - c)
			c = end
		}
		for _, f := range j.refill {
			if err := j.inject(r, f); err != nil {
				return err
			}
		}
		j.refill = j.refill[:0]
		for nextLight <= c {
			f := r.IntN(j.flows)
			for j.backlogged(f) {
				f = r.IntN(j.flows)
			}
			if err := j.inject(r, f); err != nil {
				return err
			}
			nextLight += 1 + int64(r.ExpFloat64()/lightRate)
		}
		if j.err != nil {
			j.res.maxSC = max(j.res.maxSC, j.err.MaxSC(), j.err.PrevMaxSC())
			j.res.activeSum += float64(j.err.ActiveFlows())
		}
		j.res.backlogSum += float64(j.eng.BacklogFlits())
		j.res.samples++
		if c-sliceStart >= sliceCycles {
			now := time.Now()
			j.res.slices = append(j.res.slices, now.Sub(sliceT).Seconds())
			sliceStart, sliceT = c, now
		}
	}
	if j.err != nil {
		j.res.rounds = j.err.Round()
	}
	if _, ok := j.eng.RunUntilDrained(1 << 40); !ok {
		return fmt.Errorf("%s/%d flows: engine did not drain", j.disc, j.flows)
	}
	if j.err != nil {
		j.res.maxSC = max(j.res.maxSC, j.err.MaxSC(), j.err.PrevMaxSC())
	}
	j.res.end = time.Now()
	return nil
}

// runErrSweep is err-sweep: the grid {ERR, weighted ERR, DRR} x
// {2^10, 2^18} flows through exec.Run, repeated (freshly built) until
// the host-time window is over. The 2^18-flow cells run four times
// as many cycles: their ERR rounds are that much longer.
func runErrSweep(e env) (*outcome, error) {
	small, large := 1<<10, 1<<18
	smallCycles, largeCycles := int64(1<<20), int64(1<<22)
	if e.small {
		large, largeCycles, smallCycles = 1<<12, 1<<18, 1<<16
	}
	var jobs []*sweepJob
	for i, d := range []string{"err", "werr", "drr"} {
		jobs = append(jobs,
			&sweepJob{disc: d, flows: small, cycles: smallCycles, seed: e.seed*16 + uint64(2*i)},
			&sweepJob{disc: d, flows: large, cycles: largeCycles, seed: e.seed*16 + uint64(2*i+1)})
	}
	workers := runtime.GOMAXPROCS(0)
	o := newOutcome()
	var grids, sliceS, jobS, waitS []float64
	// setup_s: the median of 15 constructions of the whole grid.
	_, setup, err := timeReps(15, func() (struct{}, error) {
		for _, j := range jobs {
			if err := j.build(e.tr != nil); err != nil {
				return struct{}{}, err
			}
		}
		return struct{}{}, nil
	}, nil)
	if err != nil {
		return nil, err
	}
	o.host["setup_s"] = setup
	e.heap.poll()
	var first []jobResult
	var attempts atomic.Int64
	var jobErrors int64
	t0 := time.Now()
	for rep := 0; rep == 0 || time.Since(t0).Seconds() < e.seconds; rep++ {
		for _, j := range jobs {
			if err := j.build(e.tr != nil); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		fns := make([]exec.Job[struct{}], len(jobs))
		for i, j := range jobs {
			fns[i] = func() (struct{}, error) { attempts.Add(1); return struct{}{}, j.run() }
		}
		gs := time.Now()
		_, err := exec.Run(fns, workers)
		ge := time.Now()
		if err != nil {
			jobErrors++
			o.fail("grid: %v", err)
			break
		}
		grids = append(grids, ge.Sub(gs).Seconds())
		var busy float64
		var root int64
		if e.tr != nil {
			root = e.tr.reserve()
		}
		for _, j := range jobs {
			sliceS = append(sliceS, j.res.slices...)
			d := j.res.end.Sub(j.res.start).Seconds()
			busy += d
			jobS = append(jobS, d)
			waitS = append(waitS, j.res.start.Sub(gs).Seconds())
			if e.tr != nil {
				e.tr.add("exec.job "+j.disc+fmt.Sprint(j.flows), root, j.res.start, j.res.end)
			}
		}
		if e.tr != nil {
			e.tr.addID(root, "err-sweep.grid", 0, gs, ge)
		}
		o.host["exec.worker_busy_frac"] += busy / (float64(workers) * ge.Sub(gs).Seconds())
		if rep == 0 {
			for _, j := range jobs {
				first = append(first, j.res)
			}
			sweepSim(o, jobs)
			continue
		}
		for i, j := range jobs {
			if j.res.injected != first[i].injected || j.res.departed != first[i].departed || j.res.maxSC != first[i].maxSC {
				o.fail("%s/%d flows: rep %d differs from rep 0 on the same seed", j.disc, j.flows, rep)
			}
		}
	}
	if len(grids) == 0 {
		return o, nil
	}
	var pkts int64
	for _, r := range first {
		pkts += r.departed
	}
	o.host["packets_per_s"] = float64(pkts) / median(grids)
	o.host["latency_p50_ms"] = quantile(sliceS, 0.5) * 1e3
	o.throughput = o.host["packets_per_s"]
	o.host["exec.job_s_p50"] = quantile(jobS, 0.5)
	o.host["exec.job_s_max"] = slices.Max(jobS)
	o.host["exec.queue_wait_s"] = mean(waitS)
	o.host["exec.worker_busy_frac"] /= float64(len(grids))
	o.host["exec.retries"] = float64(attempts.Load() - int64(len(jobs)*len(grids)))
	o.host["exec.job_errors"] = float64(jobErrors)
	var cycles, engNS float64
	for _, j := range jobs {
		cycles += float64(j.eng.Cycle())
		engNS += float64(j.res.end.Sub(j.res.start).Nanoseconds())
	}
	o.host["engine.cycle_ns"] = engNS / cycles
	if e.tr != nil {
		for _, d := range []string{"err", "werr", "drr"} {
			var h [3]hist
			for _, j := range jobs {
				if j.disc == d {
					for k := range h {
						h[k].merge(&j.st.hists[k])
					}
				}
			}
			o.layer["sched."+d+".next_flow_ns_p50"] = h[callNext].quantile(0.5)
			o.layer["sched."+d+".next_flow_ns_p99"] = h[callNext].quantile(0.99)
			o.layer["sched."+d+".on_done_ns_p50"] = h[callDone].quantile(0.5)
			o.layer["sched."+d+".decisions"] = float64(h[callNext].n)
		}
	}
	return o, nil
}

// sweepSim sets the grid's simulated results and checks them: every
// injected packet departed, and Lemma 1 (SC <= m-1, m the largest
// billed cost) held for every ERR job.
func sweepSim(o *outcome, jobs []*sweepJob) {
	var delays []float64
	var jains, active, samples, backlog, allSamples, stalls, cycles float64
	headroom := int64(1 << 62)
	for _, j := range jobs {
		r := &j.res
		o.attempted += r.injected
		o.failed += r.injected - r.departed
		if r.departed != r.injected {
			o.fail("%s/%d flows: %d of %d packets departed", j.disc, j.flows, r.departed, r.injected)
		}
		for _, d := range r.lightDelay {
			delays = append(delays, float64(d))
		}
		share := make([]float64, len(r.service))
		for i, s := range r.service {
			share[i] = float64(s)
			if j.w != nil {
				share[i] /= float64(j.w[i*backlogEvery])
			}
		}
		jains += jain(share)
		backlog += r.backlogSum
		allSamples += r.samples
		stalls += float64(r.stalls)
		cycles += float64(j.eng.Cycle())
		if j.err != nil {
			h := (r.maxCost - 1) - r.maxSC
			headroom = min(headroom, h)
			if h < 0 {
				o.fail("%s/%d flows: Lemma 1 violated: MaxSC %d > m-1 = %d", j.disc, j.flows, r.maxSC, r.maxCost-1)
			}
			o.sim["core.rounds"] += float64(r.rounds)
			active += r.activeSum
			samples += r.samples
		}
	}
	o.sim["sim_delay_p50_cycles"] = quantile(delays, 0.5)
	o.sim["sim_delay_p99_cycles"] = quantile(delays, 0.99)
	o.sim["sim_jain_backlogged"] = jains / float64(len(jobs))
	o.sim["core.lemma1_headroom_min"] = float64(headroom)
	o.sim["core.active_flows_mean"] = active / samples
	o.sim["engine.backlog_flits_mean"] = backlog / allSamples
	o.sim["engine.stall_frac"] = stalls / cycles
	o.sim["sim_departed_packets"] = float64(o.attempted - o.failed)
}
