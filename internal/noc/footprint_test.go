package noc

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
)

// TestMeshBytesPerRouterBudget pins the router arena footprint of the
// two torus shapes the benchmarks run: the saturated-torus workload's
// (VCs 2, BufFlits 8) and the scale sweep's (BufFlits 2). The budgets
// are below the 48-byte FIFO slot and lock layouts (6767 and 3887
// bytes), so widening either record again fails here.
func TestMeshBytesPerRouterBudget(t *testing.T) {
	for _, c := range []struct {
		bufFlits int
		budget   int64
	}{
		{bufFlits: 8, budget: 5400},
		{bufFlits: 2, budget: 3400},
	} {
		m, err := NewMesh(Config{K: 4, VCs: 2, BufFlits: c.bufFlits, Torus: true,
			NewArb: func() sched.Scheduler { return core.New() }})
		if err != nil {
			t.Fatal(err)
		}
		if got := m.BytesPerRouter(); got > c.budget {
			t.Errorf("torus VCs 2 BufFlits %d: %d bytes/router, budget %d", c.bufFlits, got, c.budget)
		}
	}
}

// TestSendRejectsUnpackableLength checks that Send and SendAt refuse a
// packet length outside [1, MaxInt32] at submission: routers store a
// flit's sequence number in 32 bits.
func TestSendRejectsUnpackableLength(t *testing.T) {
	m := testMesh(t, 2)
	sends := map[string]func(length int){
		"Send":   func(length int) { m.Send(0, 1, length) },
		"SendAt": func(length int) { m.SendAt(m.Cycle()+10, 0, 1, length) },
	}
	for name, send := range sends {
		for _, c := range []struct {
			length int
			want   string
		}{
			{0, "length < 1"},
			{math.MaxInt32 + 1, "> math.MaxInt32"},
		} {
			func() {
				defer func() {
					if msg := fmt.Sprint(recover()); !strings.Contains(msg, c.want) {
						t.Errorf("%s(length %d): panic %q, want it to contain %q", name, c.length, msg, c.want)
					}
				}()
				send(c.length)
			}()
		}
	}
	if m.InFlight() != 0 || len(m.sched) != 0 {
		t.Errorf("rejected sends left %d in flight, %d scheduled", m.InFlight(), len(m.sched))
	}
}
