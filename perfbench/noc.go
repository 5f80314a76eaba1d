package main

import (
	"math"
	"math/rand/v2"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/sched"
)

// truncExp draws a packet length from the paper's truncated
// exponential: rate 0.2, lengths 1..64, by rejection.
func truncExp(r *rand.Rand) int {
	for {
		if x := 1 + int(r.ExpFloat64()/0.2); x <= 64 {
			return x
		}
	}
}

// otherNode draws a destination uniformly from the n-1 nodes != src.
func otherNode(r *rand.Rand, n, src int) int {
	d := r.IntN(n - 1)
	if d >= src {
		d++
	}
	return d
}

// meshRig is a mesh plus the hooks a traced run reads.
type meshRig struct {
	m      *noc.Mesh
	reg    *obs.Registry // nil untraced
	arbs   []*callStats  // one per arbiter, traced only
	sendNS hist          // host ns per Send/SendAt, traced only
}

// buildMesh constructs the mesh reps times and returns the last one
// and the median construction time (setup_s). Traced runs wrap every
// ERR arbiter in a timing decorator.
func buildMesh(cfg noc.Config, reps int, traced bool) (*meshRig, float64, error) {
	rig, setup, err := timeReps(reps, func() (*meshRig, error) {
		r := &meshRig{}
		c := cfg
		c.NewArb = func() sched.Scheduler { return core.New() }
		if traced {
			c.NewArb = func() sched.Scheduler {
				st := &callStats{}
				r.arbs = append(r.arbs, st)
				return wrapSched(core.New(), st)
			}
		}
		m, err := noc.NewMesh(c)
		r.m = m
		return r, err
	}, nil)
	if err != nil {
		return nil, 0, err
	}
	if traced {
		rig.reg = obs.NewRegistry()
		rig.m.RegisterObs(rig.reg)
	}
	return rig, setup, nil
}

func (r *meshRig) send(src, dst, length int) {
	if r.reg == nil {
		r.m.Send(src, dst, length)
		return
	}
	t0 := time.Now()
	r.m.Send(src, dst, length)
	r.sendNS.add(time.Since(t0).Nanoseconds())
}

func (r *meshRig) sendAt(at int64, src, dst, length int) {
	if r.reg == nil {
		r.m.SendAt(at, src, dst, length)
		return
	}
	t0 := time.Now()
	r.m.SendAt(at, src, dst, length)
	r.sendNS.add(time.Since(t0).Nanoseconds())
}

func (r *meshRig) counter(name string) int64 { return r.reg.Counter(name).Value() }

func (r *meshRig) arbNS() int64 {
	var s int64
	for _, st := range r.arbs {
		s += st.ns[0] + st.ns[1] + st.ns[2]
	}
	return s
}

// delivered sums the mesh's per-source delivered flits and packets.
func delivered(m *noc.Mesh) (flits, pkts int64) {
	for i := range m.DeliveredFlits {
		flits += m.DeliveredFlits[i]
		pkts += m.DeliveredPackets[i]
	}
	return
}

// simWindow snapshots what the simulated-result metrics difference
// over a window of cycles.
type simWindow struct {
	cycle       int64
	flits, pkts int64
	latN        int64
	latSum      float64
}

func snapWindow(m *noc.Mesh) simWindow {
	f, p := delivered(m)
	return simWindow{cycle: m.Cycle(), flits: f, pkts: p, latN: m.Latency.N(), latSum: m.Latency.Mean() * float64(m.Latency.N())}
}

// simMetrics sets the window's accepted throughput and mean latency.
func simMetrics(o *outcome, a, b simWindow, nodes int) {
	cycles := float64(b.cycle - a.cycle)
	o.sim["sim_accepted_flits_per_node_cycle"] = float64(b.flits-a.flits) / (cycles * float64(nodes))
	o.sim["sim_latency_mean_cycles"] = (b.latSum - a.latSum) / float64(b.latN-a.latN)
	o.sim["sim_window_packets"] = float64(b.pkts - a.pkts)
}

// finishMesh drains the mesh and checks that every sent packet was
// delivered.
func finishMesh(o *outcome, m *noc.Mesh, sent int64) {
	t0, c0, f0 := time.Now(), m.Cycle(), m.InFlight()
	drained := m.Drain(1 << 22)
	logf("drain: %d in flight, %d cycles in %.2fs", f0, m.Cycle()-c0, time.Since(t0).Seconds())
	_, pkts := delivered(m)
	o.attempted = sent
	o.failed = sent - pkts
	if !drained {
		o.fail("Drain returned false with %d packets in flight", m.InFlight())
	}
	if pkts != sent {
		o.fail("delivered %d packets, sent %d", pkts, sent)
	}
}

// runTorus is torus-saturated: a 128x128 ERR torus offered more than
// it can carry, each source capped at one pending packet so the
// backlog stays bounded. It warms up until the delivered rate and the
// in-flight occupancy are stationary, then measures a fixed simulated
// window (the sim metrics) and keeps stepping until the host-time
// window is over. The untraced run then drains the network and checks
// delivery; the traced run, which must match it cycle for cycle
// through the window, skips the drain to stay within the time limit.
func runTorus(e env) (*outcome, error) {
	k, window, reps := 128, int64(256), 5
	if e.small {
		k, window = 16, 64
	}
	const (
		rate       = 0.05 // offered packets per node per cycle
		pendingCap = 1
		block      = 16 // warm-up test block, cycles
		testBlocks = 8
		maxWarm    = 4096
	)
	o := newOutcome()
	rig, setup, err := buildMesh(noc.Config{K: k, VCs: 2, BufFlits: 8, Torus: true}, reps, e.tr != nil)
	if err != nil {
		return nil, err
	}
	o.host["setup_s"] = setup
	e.heap.settle()
	m, n := rig.m, k*k
	pool := exec.NewPool(runtime.GOMAXPROCS(0))
	defer pool.Close()
	m.SetPool(pool)

	r := rand.New(rand.NewPCG(e.seed, 0x7041))
	var sent int64
	inject := func() {
		for src := 0; src < n; src++ {
			if m.PendingAt(src) < pendingCap && r.Float64() < rate {
				rig.send(src, otherNode(r, n, src), truncExp(r))
				sent++
			}
		}
	}

	// Warm-up: stationary once the mean delivered rate of the last
	// testBlocks blocks is within 3% of the testBlocks before them and
	// their mean in-flight count within 1%. The network first fills
	// past its stationary occupancy and then settles, so the windows
	// are long enough that the overshoot's peak does not pass. Pure
	// simulated state: the warm-up length is a function of the seed.
	var rates, occ []float64
	prev, _ := delivered(m)
	warm := int64(0)
	for ; ; warm += block {
		if l := len(rates); l >= 2*testBlocks {
			a, b := l-2*testBlocks, l-testBlocks
			if near(mean(rates[b:]), mean(rates[a:b]), 0.03) && near(mean(occ[b:]), mean(occ[a:b]), 0.01) {
				break
			}
		}
		if warm >= maxWarm {
			o.fail("no stationary state after %d warm-up cycles", warm)
			break
		}
		for i := 0; i < block; i++ {
			inject()
			m.Step()
		}
		f, _ := delivered(m)
		rates = append(rates, float64(f-prev)/float64(block*n))
		occ = append(occ, float64(m.InFlight()))
		prev = f
	}
	o.sim["noc.warmup_cycles"] = float64(warm)
	e.heap.settle()

	// Measured phase.
	var stepS []float64
	var inFlight, worklist float64
	var stepNS hist
	var c0, p0, x0, v0, s0, a0 int64
	if rig.reg != nil {
		c0, p0, x0, v0, s0 = rig.counter("noc.cycles"), rig.counter("noc.router_computes"),
			rig.counter("noc.cross_shard_effects"), rig.counter("noc.cells_visited"), m.Skipped()
		a0 = rig.arbNS()
	}
	start := snapWindow(m)
	var end simWindow
	var root int64
	if e.tr != nil {
		root = e.tr.reserve()
	}
	t0 := time.Now()
	for i := int64(0); ; i++ {
		if i == window {
			end = snapWindow(m)
		}
		if i >= window && time.Since(t0).Seconds() >= e.seconds {
			break
		}
		inject()
		ts := time.Now()
		m.Step()
		te := time.Now()
		d := te.Sub(ts)
		stepS = append(stepS, d.Seconds())
		inFlight += float64(m.InFlight())
		if rig.reg != nil {
			stepNS.add(d.Nanoseconds())
			worklist += float64(rig.reg.Gauge("noc.worklist_len").Value())
			e.tr.add("noc.Step", root, ts, te)
		}
	}
	measured := float64(len(stepS))
	if e.tr != nil {
		e.tr.addID(root, "torus-saturated.measure", 0, t0, time.Now())
	}
	e.heap.settle()
	simMetrics(o, start, end, n)
	logf("torus: %d warm-up cycles, %d steps measured", warm, len(stepS))

	medStep := median(append([]float64(nil), stepS...))
	o.host["latency_p50_ms"] = medStep * 1e3
	o.host["router_cycles_per_s"] = float64(n) / medStep
	o.host["packets_per_s"] = o.sim["sim_window_packets"] / float64(window) / medStep
	o.throughput = o.host["router_cycles_per_s"]
	o.layer["noc.in_flight_mean"] = inFlight / measured
	o.layer["noc.bytes_per_router"] = float64(m.BytesPerRouter())
	o.layer["noc.warmup_cycles"] = float64(warm)
	if rig.reg != nil {
		cycles := float64(rig.counter("noc.cycles") - c0)
		computes := float64(rig.counter("noc.router_computes") - p0)
		o.layer["noc.step_ns_p50"] = stepNS.quantile(0.5)
		o.layer["noc.step_ns_p99"] = stepNS.quantile(0.99)
		o.layer["noc.send_ns"] = rig.sendNS.quantile(0.5)
		o.layer["noc.cycles_skipped_frac"] = float64(m.Skipped()-s0) / cycles
		o.layer["noc.active_routers_frac"] = computes / (cycles * float64(n))
		o.layer["noc.router_computes_per_cycle"] = computes / cycles
		o.layer["noc.cross_shard_frac"] = float64(rig.counter("noc.cross_shard_effects")-x0) / computes
		o.layer["wormhole.cells_visited_per_compute"] = float64(rig.counter("noc.cells_visited")-v0) / computes
		o.layer["wormhole.worklist_len_mean"] = worklist / measured
		var stepTotal float64
		for _, s := range stepS {
			stepTotal += s
		}
		o.layer["sched.arb_share_of_step"] = float64(rig.arbNS()-a0) / 1e9 / (stepTotal * float64(pool.Workers()))
	}
	if e.tr == nil {
		finishMesh(o, m, sent)
	}
	return o, nil
}

func near(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// runBursty is mesh-bursty: a 16x16 ERR mesh driven in epochs of one
// short SendAt burst followed by a long idle gap, so Mesh.Run spends
// its time in the event core's time skip and per-cycle fixed costs.
// The sim metrics cover a fixed number of epochs after warm-up; the
// host-time measurement repeats epochs until the window is over.
func runBursty(e env) (*outcome, error) {
	const (
		k        = 16
		burst    = 256   // packets per epoch
		spread   = 16    // cycles the burst's sends are spread over
		epochLen = 20000 // cycles per epoch
		reps     = 51
	)
	warmEpochs, window := 10, 200
	if e.small {
		warmEpochs, window = 2, 10
	}
	o := newOutcome()
	rig, setup, err := buildMesh(noc.Config{K: k, VCs: 2, BufFlits: 8}, reps, e.tr != nil)
	if err != nil {
		return nil, err
	}
	o.host["setup_s"] = setup
	e.heap.settle()
	m, n := rig.m, k*k
	pool := exec.NewPool(runtime.GOMAXPROCS(0))
	defer pool.Close()
	m.SetPool(pool)

	r := rand.New(rand.NewPCG(e.seed, 0xb0b5))
	var sent int64
	var runMS hist
	epoch := func(parent int64) {
		at := m.Cycle()
		for i := 0; i < burst; i++ {
			src := r.IntN(n)
			rig.sendAt(at+int64(r.IntN(spread)), src, otherNode(r, n, src), truncExp(r))
		}
		sent += burst
		ts := time.Now()
		m.Run(epochLen)
		if e.tr != nil {
			te := time.Now()
			runMS.add(te.Sub(ts).Microseconds())
			e.tr.add("noc.Run", parent, ts, te)
		}
	}
	for i := 0; i < warmEpochs; i++ {
		epoch(0)
	}
	o.layer["noc.warmup_cycles"] = float64(m.Cycle())

	var c0, p0, x0, v0 int64
	if rig.reg != nil {
		c0, p0, x0, v0 = rig.counter("noc.cycles"), rig.counter("noc.router_computes"),
			rig.counter("noc.cross_shard_effects"), rig.counter("noc.cells_visited")
	}
	s0, cyc0 := m.Skipped(), m.Cycle()
	start := snapWindow(m)
	var end simWindow
	var epochS []float64
	t0 := time.Now()
	for i := 0; ; i++ {
		if i == window {
			end = snapWindow(m)
		}
		if i >= window && time.Since(t0).Seconds() >= e.seconds {
			break
		}
		var id int64
		if e.tr != nil {
			id = e.tr.reserve()
		}
		ts := time.Now()
		epoch(id)
		te := time.Now()
		epochS = append(epochS, te.Sub(ts).Seconds())
		if e.tr != nil {
			e.tr.addID(id, "mesh-bursty.epoch", 0, ts, te)
		}
	}
	e.heap.settle()
	simMetrics(o, start, end, n)
	// Little's law over the window: mean packets in flight equals
	// the summed latency over the simulated cycles.
	o.layer["noc.in_flight_mean"] = (end.latSum - start.latSum) / float64(end.cycle-start.cycle)

	medEpoch := median(append([]float64(nil), epochS...))
	o.host["latency_p50_ms"] = medEpoch * 1e3
	o.host["router_cycles_per_s"] = float64(n) * epochLen / medEpoch
	o.host["packets_per_s"] = burst / medEpoch
	o.throughput = o.host["router_cycles_per_s"]
	o.layer["noc.bytes_per_router"] = float64(m.BytesPerRouter())
	skipped, total := float64(m.Skipped()-s0), float64(m.Cycle()-cyc0)
	o.layer["noc.cycles_skipped_frac"] = skipped / total
	if rig.reg != nil {
		stepped := float64(rig.counter("noc.cycles")-c0) - skipped // noc.cycles counts skipped cycles too
		computes := float64(rig.counter("noc.router_computes") - p0)
		o.layer["noc.run_epoch_ms_p50"] = runMS.quantile(0.5) / 1e3
		o.layer["noc.send_ns"] = rig.sendNS.quantile(0.5)
		o.layer["noc.active_routers_frac"] = computes / (stepped * float64(n))
		o.layer["noc.router_computes_per_cycle"] = computes / total
		o.layer["noc.cross_shard_frac"] = float64(rig.counter("noc.cross_shard_effects")-x0) / computes
		o.layer["wormhole.cells_visited_per_compute"] = float64(rig.counter("noc.cells_visited")-v0) / computes
	}
	finishMesh(o, m, sent)
	if o.sim["sim_window_packets"] == 0 {
		o.fail("no packets delivered in the measured window")
	}
	return o, nil
}
