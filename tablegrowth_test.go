package repro

// Amortized growth of the per-flow tables behind Theorem 1's O(1)
// claim. Every round-robin scheduler indexes its per-flow state by
// flow id and grows it when a higher id first appears; growing to
// exactly id+1 copies the whole table each time, so activating n
// flows in ascending id order allocates O(n^2) bytes. This test
// fills 2^16 ids the way the err-sweep benchmark does (every 8th id,
// then the rest) and bounds the bytes allocated by a constant times
// the final per-flow state.

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/flit"
	"repro/internal/queue"
	"repro/internal/sched"
	"repro/internal/serve"
)

// sweepOrder returns flow ids 0..n-1 in the order the err-sweep
// benchmark first activates them: every 8th id (its backlogged
// flows), then the rest.
func sweepOrder(n int) []int {
	ids := make([]int, 0, n)
	for id := 0; id < n; id += 8 {
		ids = append(ids, id)
	}
	for id := 0; id < n; id++ {
		if id%8 != 0 {
			ids = append(ids, id)
		}
	}
	return ids
}

// activateAndDrain makes every id in ids active in order, then serves
// each flow's single one-flit packet until the scheduler is idle.
func activateAndDrain(s sched.Scheduler, ids []int) {
	la, lengthAware := s.(sched.LengthAware)
	for _, id := range ids {
		s.OnArrival(id, true)
		if lengthAware {
			la.OnArrivalLength(id, 1)
		}
	}
	for range ids {
		s.OnPacketDone(s.NextFlow(), 1, true)
	}
}

// injectAndDrain builds an ERR engine over n flows, injects one
// one-flit packet into every id in ids, in order, and runs it until
// drained. It returns the engine so callers can measure what it
// retains.
func injectAndDrain(tb testing.TB, n int, ids []int) *engine.Engine {
	e, err := engine.NewEngine(engine.Config{Flows: n, Scheduler: core.New()})
	if err != nil {
		tb.Fatal(err)
	}
	for _, id := range ids {
		if err := e.Inject(flit.Packet{Flow: id, Length: 1}); err != nil {
			tb.Fatal(err)
		}
	}
	if _, drained := e.RunUntilDrained(int64(2 * len(ids))); !drained {
		tb.Fatalf("engine over %d flows did not drain", n)
	}
	return e
}

func TestPerFlowTablesGrowAmortized(t *testing.T) {
	const n = 1 << 16
	ids := sweepOrder(n)
	// perFlow is the scheduler's per-flow state in bytes once it
	// covers n flows: one element of each flow-indexed table plus an
	// ActiveList slot (a bool member flag and an int ring entry).
	const list = 1 + 8
	cases := []struct {
		name    string
		perFlow int
		fill    func()
	}{
		{"ActiveList", list, func() {
			var l queue.ActiveList
			for _, id := range ids {
				l.PushTail(id)
			}
		}},
		// sc, zeroed at every activation.
		{"ERR", 8 + list, func() { activateAndDrain(core.New(), ids) }},
		// deficit, a 12-byte length-FIFO header, and one 16-byte
		// slab slot for the flow's queued length.
		{"DRR", 8 + 12 + 16 + list, func() { activateAndDrain(sched.NewDRR(64, nil), ids) }},
		// rem, stamp, and three ActiveLists (cur, next, parked).
		{"IWRR", 8 + 8 + 3*list, func() { activateAndDrain(sched.NewIWRR(nil), ids) }},
		// sc, written when each flow's opportunity closes.
		{"WallERR", 8 + list, func() {
			w := serve.NewWallERR(nil, 0)
			for _, id := range ids {
				w.OnArrival(id, true)
			}
			for f := w.NextFlow(); f != -1; f = w.NextFlow() {
				w.OnServiceDone(f, w.OnDispatch(f, true), 1)
			}
		}},
		// A 12-byte queue header and one 32-byte slab slot for the
		// flow's queued packet, under ERR's sc and ActiveList.
		{"Engine", 12 + 32 + 8 + list, func() { injectAndDrain(t, n, ids) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			c.fill()
			runtime.ReadMemStats(&after)
			got := after.TotalAlloc - before.TotalAlloc
			// Geometric growth allocates at most a few times the
			// final size in total (append's 1.25x steps sum to 5x).
			limit := uint64(8 * n * c.perFlow)
			if got > limit {
				t.Errorf("filling %d flow ids allocated %d bytes, want <= %d (8 x %d B/flow): per-flow tables grow quadratically",
					n, got, limit, c.perFlow)
			}
		})
	}
}

// TestEngineRetainedHeapPerFlow bounds what a drained engine keeps
// live per flow. Its queues share one packet slab: a 12-byte header
// per flow, plus the slab's peak of queued packets, whose slots sit on
// the free list after the drain. With one ring per flow (a 48-byte
// header and a 320-byte ring that Pop never frees) the same fill
// retains about 380 bytes per flow.
func TestEngineRetainedHeapPerFlow(t *testing.T) {
	const n = 1 << 16
	const limit = 128 // bytes per flow
	ids := sweepOrder(n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	e := injectAndDrain(t, n, ids)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(e)
	perFlow := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / n
	t.Logf("drained engine over %d flows retains %d B/flow", n, perFlow)
	if perFlow > limit {
		t.Errorf("drained engine over %d flows retains %d B/flow, want <= %d", n, perFlow, limit)
	}
}
