package harness

import (
	"testing"

	"repro/internal/flit"
	"repro/internal/sched"
)

func TestDriverBasics(t *testing.T) {
	d := New(2, sched.NewFCFS())
	if d.Backlog() != 0 {
		t.Fatal("fresh driver has backlog")
	}
	d.Arrive(flit.Packet{Flow: 0, Length: 3})
	d.Arrive(flit.Packet{Flow: 1, Length: 5})
	if d.Backlog() != 2 || d.QueueLen(0) != 1 || d.QueueLen(1) != 1 {
		t.Fatal("backlog accounting wrong")
	}
	p := d.ServeOne()
	if p.Flow != 0 || d.Served(0) != 3 {
		t.Fatalf("first service %+v, served=%d", p, d.Served(0))
	}
	rest := d.Drain()
	if len(rest) != 1 || rest[0].Flow != 1 || d.Served(1) != 5 {
		t.Fatal("drain wrong")
	}
}

func TestDriverCostFnAndOnServe(t *testing.T) {
	d := New(1, sched.NewPBRR())
	d.CostFn = func(p flit.Packet) int64 { return int64(p.Length) * 3 }
	var gotCost int64
	d.OnServe = func(p flit.Packet, cost int64) { gotCost = cost }
	d.Arrive(flit.Packet{Flow: 0, Length: 4})
	d.ServeOne()
	if gotCost != 12 {
		t.Errorf("cost %d, want 12", gotCost)
	}
	// Served tracks flits, not cost.
	if d.Served(0) != 4 {
		t.Errorf("Served = %d, want 4", d.Served(0))
	}
}

func TestDriverPanics(t *testing.T) {
	d := New(1, sched.NewFCFS())
	assertPanics(t, "ServeOne empty", func() { d.ServeOne() })
	assertPanics(t, "invalid packet", func() { d.Arrive(flit.Packet{Flow: 0, Length: 0}) })
	assertPanics(t, "flow past the driver", func() { d.Arrive(flit.Packet{Flow: 1, Length: 1}) })
}

func TestServeNStopsAtDrain(t *testing.T) {
	d := New(1, sched.NewFCFS())
	d.Arrive(flit.Packet{Flow: 0, Length: 1})
	got := d.ServeN(10)
	if len(got) != 1 {
		t.Fatalf("ServeN returned %d packets, want 1", len(got))
	}
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	f()
}
