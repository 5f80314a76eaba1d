package engine

import (
	"errors"
	"math"
	"testing"

	"repro/internal/flit"
	"repro/internal/sched"
)

// spySched records every scheduler callback so tests can assert the
// engine's calling discipline exactly. It wraps DRR (the repo's
// LengthAware discipline) so service still works.
type spySched struct {
	*sched.DRR
	arrivals []int
	lengths  []int
}

func (s *spySched) OnArrival(flow int, wasEmpty bool) {
	s.arrivals = append(s.arrivals, flow)
	s.DRR.OnArrival(flow, wasEmpty)
}

func (s *spySched) OnArrivalLength(flow int, length int) {
	s.lengths = append(s.lengths, length)
	s.DRR.OnArrivalLength(flow, length)
}

var _ sched.LengthAware = (*spySched)(nil)

// TestRejectedInjectionNeverReachesScheduler pins the audit behind
// the fault injector's zerolen/badflow directives: a packet refused
// at injection must produce NO scheduler callbacks — in particular
// OnArrivalLength must never run without its matching OnArrival, or
// a LengthAware discipline's length FIFO would desync from the real
// queue and bill the wrong packet.
func TestRejectedInjectionNeverReachesScheduler(t *testing.T) {
	spy := &spySched{DRR: sched.NewDRR(64, nil)}
	e, err := NewEngine(Config{Flows: 2, Scheduler: spy})
	if err != nil {
		t.Fatal(err)
	}
	var rejected int
	e.cfg.OnReject = func(p flit.Packet, cycle int64, err error) { rejected++ }

	if err := e.Inject(flit.Packet{Flow: 0, Length: 0}); err == nil {
		t.Fatal("zero-length packet accepted")
	}
	if err := e.Inject(flit.Packet{Flow: 2, Length: 4}); err == nil {
		t.Fatal("out-of-range flow accepted")
	}
	if err := e.Inject(flit.Packet{Flow: -1, Length: 4}); err == nil {
		t.Fatal("negative flow accepted")
	}
	if len(spy.arrivals) != 0 || len(spy.lengths) != 0 {
		t.Fatalf("rejected packets reached the scheduler: arrivals %v lengths %v",
			spy.arrivals, spy.lengths)
	}
	if rejected != 3 {
		t.Fatalf("OnReject saw %d packets, want 3", rejected)
	}

	// Valid packets produce exactly paired callbacks, in order.
	if err := e.Inject(flit.Packet{Flow: 1, Length: 7}); err != nil {
		t.Fatal(err)
	}
	if err := e.Inject(flit.Packet{Flow: 0, Length: 3}); err != nil {
		t.Fatal(err)
	}
	if len(spy.arrivals) != 2 || len(spy.lengths) != 2 {
		t.Fatalf("paired callbacks: arrivals %v lengths %v", spy.arrivals, spy.lengths)
	}
	if spy.arrivals[0] != 1 || spy.lengths[0] != 7 || spy.arrivals[1] != 0 || spy.lengths[1] != 3 {
		t.Fatalf("callback order wrong: arrivals %v lengths %v", spy.arrivals, spy.lengths)
	}
	// And the run drains cleanly — the length FIFO matches the queue.
	e.Run(20)
	if e.Backlog() != 0 {
		t.Fatal("backlog not drained after rejects")
	}
}

// TestInjectRejectsUnpackableFields: queues store a packet's Length
// and Dst in 32 bits, so Inject refuses values outside int32 with
// flit.ErrFieldRange through OnReject instead of truncating them, and
// the int32 extremes survive the queue unchanged.
func TestInjectRejectsUnpackableFields(t *testing.T) {
	for _, mode := range []string{"packet", "flit"} {
		t.Run(mode, func(t *testing.T) {
			cfg := Config{Flows: 2, Scheduler: sched.NewPBRR()}
			if mode == "flit" {
				cfg = Config{Flows: 2, FlitSched: sched.NewFBRR()}
			}
			var rejected []error
			cfg.OnReject = func(p flit.Packet, cycle int64, err error) { rejected = append(rejected, err) }
			var departed []flit.Packet
			cfg.OnDeparture = func(p flit.Packet, cycle, occ int64) { departed = append(departed, p) }
			e, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []flit.Packet{
				{Flow: 0, Length: math.MaxInt32 + 1},
				{Flow: 1, Length: 1, Dst: math.MaxInt32 + 1},
				{Flow: 1, Length: 1, Dst: math.MinInt32 - 1},
			} {
				if err := e.Inject(p); !errors.Is(err, flit.ErrFieldRange) {
					t.Errorf("Inject(%+v) = %v, want flit.ErrFieldRange", p, err)
				}
			}
			if len(rejected) != 3 || e.Rejected() != 3 || e.Backlog() != 0 {
				t.Fatalf("OnReject saw %d, Rejected() = %d, Backlog() = %d; want 3, 3, 0", len(rejected), e.Rejected(), e.Backlog())
			}
			want := []flit.Packet{{Flow: 0, Length: 2, Dst: math.MaxInt32}, {Flow: 1, Length: 1, Dst: math.MinInt32}}
			for _, p := range want {
				if err := e.Inject(p); err != nil {
					t.Fatal(err)
				}
			}
			if _, drained := e.RunUntilDrained(10); !drained || len(departed) != 2 {
				t.Fatalf("drained %v with %d departures, want 2", drained, len(departed))
			}
			for _, d := range departed {
				w := want[d.Flow]
				if d.Length != w.Length || d.Dst != w.Dst {
					t.Errorf("flow %d departed with Length %d Dst %d, want %d %d", d.Flow, d.Length, d.Dst, w.Length, w.Dst)
				}
			}
			if err := e.Inject(flit.Packet{Flow: 0, Length: math.MaxInt32}); err != nil {
				t.Fatalf("Length math.MaxInt32 refused: %v", err)
			}
			if got := e.BacklogFlits(); got != math.MaxInt32 {
				t.Fatalf("BacklogFlits = %d, want %d", got, math.MaxInt32)
			}
		})
	}
}
