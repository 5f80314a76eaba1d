package engine

import (
	"testing"

	"repro/internal/core"
	"repro/internal/flit"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/traffic"
)

// TestVirtualClockInEngine exercises the ClockAware plumbing: the
// engine must feed the cycle counter to VirtualClock before
// arrivals, and the discipline must stay fair across an idle gap
// (the max(now, VC_i) reset).
func TestVirtualClockInEngine(t *testing.T) {
	e, err := NewEngine(Config{Flows: 2, Scheduler: sched.NewVirtualClock(nil)})
	if err != nil {
		t.Fatal(err)
	}
	served := make([]int64, 2)
	e.cfg.OnFlit = func(cycle int64, flow int) { served[flow]++ }
	// Flow 0 monopolises an early period, then goes idle.
	for i := 0; i < 5; i++ {
		e.Inject(flit.Packet{Flow: 0, Length: 10})
	}
	e.Run(100)
	// A long idle gap; flow 1 then arrives. VirtualClock must not
	// "owe" flow 1 all the capacity flow 0 used before (its clock
	// resets to now), so after the gap both flows share ~equally.
	e.Run(200)
	s0 := served[0]
	for i := 0; i < 20; i++ {
		e.Inject(flit.Packet{Flow: 0, Length: 10})
		e.Inject(flit.Packet{Flow: 1, Length: 10})
	}
	e.Run(300)
	d0 := served[0] - s0
	d1 := served[1]
	if d1 == 0 || d0 == 0 {
		t.Fatal("flows not served after gap")
	}
	r := float64(d0) / float64(d1)
	if r < 0.8 || r > 1.25 {
		t.Errorf("post-gap share ratio %.2f, want ~1 (VirtualClock reset)", r)
	}
}

// TestSTFQInEngine runs STFQ end to end through the engine.
func TestSTFQInEngine(t *testing.T) {
	src := rng.New(5)
	served := make([]int64, 2)
	e, err := NewEngine(Config{
		Flows:     2,
		Scheduler: sched.NewSTFQ(nil),
		Source: traffic.NewMulti(
			traffic.NewBacklogged(0, 4, rng.NewUniform(1, 16), src.Split()),
			traffic.NewBacklogged(1, 4, rng.NewUniform(1, 64), src.Split()),
		),
		OnFlit: func(cycle int64, flow int) { served[flow]++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(100000)
	r := float64(served[0]) / float64(served[1])
	if r < 0.95 || r > 1.05 {
		t.Errorf("STFQ engine share ratio %.3f", r)
	}
}

// TestOnStallFallsBackToOnIdle: without an OnStall hook, stall cycles
// must be reported to OnIdle so every cycle is accounted for.
func TestOnStallFallsBackToOnIdle(t *testing.T) {
	e, err := NewEngine(Config{
		Flows: 1, Scheduler: core.New(),
		Stall: StallFunc(func(int) int { return 1 }),
	})
	if err != nil {
		t.Fatal(err)
	}
	var flits, idles int
	e.cfg.OnFlit = func(int64, int) { flits++ }
	e.cfg.OnIdle = func(int64) { idles++ }
	e.Inject(flit.Packet{Flow: 0, Length: 3})
	e.Run(6)
	if flits+idles != 6 {
		t.Errorf("accounted %d cycles of 6", flits+idles)
	}
	if idles != 3 {
		t.Errorf("stall cycles reported to OnIdle = %d, want 3", idles)
	}
}

// TestOnStallSeparatesAttribution: with OnStall set, OnIdle sees only
// truly idle cycles.
func TestOnStallSeparatesAttribution(t *testing.T) {
	e, err := NewEngine(Config{
		Flows: 1, Scheduler: core.New(),
		Stall: StallFunc(func(int) int { return 1 }),
	})
	if err != nil {
		t.Fatal(err)
	}
	var stalls, idles int
	e.cfg.OnStall = func(cycle int64, flow int) {
		if flow != 0 {
			t.Errorf("stall attributed to flow %d", flow)
		}
		stalls++
	}
	e.cfg.OnIdle = func(int64) { idles++ }
	e.Inject(flit.Packet{Flow: 0, Length: 2})
	e.Run(6) // 4 busy cycles (2 stalls + 2 flits), 2 idle
	if stalls != 2 {
		t.Errorf("stalls = %d, want 2", stalls)
	}
	if idles != 2 {
		t.Errorf("idles = %d, want 2", idles)
	}
}

// TestNegativeStallPanics guards the StallModel contract.
func TestNegativeStallPanics(t *testing.T) {
	e, err := NewEngine(Config{
		Flows: 1, Scheduler: core.New(),
		Stall: StallFunc(func(int) int { return -1 }),
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Inject(flit.Packet{Flow: 0, Length: 1})
	defer func() {
		if recover() == nil {
			t.Error("negative stall did not panic")
		}
	}()
	e.Run(2)
}

// TestFlitModeBacklogAccounting: Backlog must include partially
// transmitted packets in flit mode.
func TestFlitModeBacklogAccounting(t *testing.T) {
	e, err := NewEngine(Config{Flows: 2, FlitSched: sched.NewFBRR()})
	if err != nil {
		t.Fatal(err)
	}
	e.Inject(flit.Packet{Flow: 0, Length: 4})
	e.Inject(flit.Packet{Flow: 1, Length: 4})
	e.Step() // one flit of one packet moved
	if got := e.Backlog(); got != 2 {
		t.Errorf("Backlog = %d mid-packet, want 2", got)
	}
	e.Run(7)
	if e.Backlog() != 0 {
		t.Error("backlog not drained")
	}
}

// TestFlitModeBacklogCounterMatchesScan cross-checks the O(1)
// flit-mode backlog counter against a brute-force scan of the slab
// queues at every cycle, over a workload that includes length-1
// packets (a packet that starts and completes in the same step). A
// packet in service stays at its queue's head, so the scan counts it
// there, and a flow with no queued packet must have no flits sent.
func TestFlitModeBacklogCounterMatchesScan(t *testing.T) {
	const flows = 5
	e, err := NewEngine(Config{Flows: flows, FlitSched: sched.NewFBRR()})
	if err != nil {
		t.Fatal(err)
	}
	scan := func() int {
		n := 0
		for f := 0; f < flows; f++ {
			n += e.queues.Len(f)
			if e.queues.Empty(f) && e.sent[f] != 0 {
				t.Fatalf("flow %d has no queued packet but %d flits sent", f, e.sent[f])
			}
		}
		return n
	}
	src := rng.New(21)
	for c := 0; c < 2000; c++ {
		if src.Bernoulli(0.3) {
			e.Inject(flit.Packet{Flow: src.Intn(flows), Length: src.IntRange(1, 4)})
		}
		e.Step()
		if got, want := e.Backlog(), scan(); got != want {
			t.Fatalf("cycle %d: Backlog = %d, scan = %d", c, got, want)
		}
	}
	if _, drained := e.RunUntilDrained(10_000); !drained {
		t.Fatal("did not drain")
	}
	if got := e.Backlog(); got != 0 {
		t.Fatalf("Backlog after drain = %d", got)
	}
}

// TestMixedInjectAndSource: direct Inject combines with a Source.
func TestMixedInjectAndSource(t *testing.T) {
	src := rng.New(9)
	e, err := NewEngine(Config{
		Flows:     2,
		Scheduler: core.New(),
		Source:    traffic.NewWindow(traffic.NewBernoulli(0, 1.0, rng.Constant{Length: 2}, src), 0, 10),
	})
	if err != nil {
		t.Fatal(err)
	}
	var departed int
	e.cfg.OnDeparture = func(p flit.Packet, cycle, occ int64) { departed++ }
	e.Inject(flit.Packet{Flow: 1, Length: 5})
	_, drained := e.RunUntilDrained(1000)
	if !drained {
		t.Fatal("did not drain")
	}
	if departed != 11 { // 10 source packets + 1 injected
		t.Errorf("departures %d, want 11", departed)
	}
}
