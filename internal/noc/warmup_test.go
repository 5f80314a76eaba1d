package noc

import (
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/sched"
)

func TestStationary(t *testing.T) {
	flat := func(v float64, n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = v
		}
		return xs
	}
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(100 + 10*i)
		}
		return xs
	}
	// drift scales the last warmTestBlocks samples of xs by f.
	drift := func(xs []float64, f float64) []float64 {
		for i := len(xs) - warmTestBlocks; i < len(xs); i++ {
			xs[i] *= f
		}
		return xs
	}
	n := 2 * warmTestBlocks
	cases := []struct {
		name                string
		delivered, inFlight []float64
		want                bool
	}{
		{"steady", flat(50, n), flat(400, n), true},
		{"steady-long", flat(50, 3*n), flat(400, 3*n), true},
		{"too-few-blocks", flat(50, n-1), flat(400, n-1), false},
		{"rate-ramping", ramp(n), flat(400, n), false},
		{"rate-within-3pct", drift(flat(50, n), 1.025), flat(400, n), true},
		{"rate-off-4pct", drift(flat(50, n), 1.04), flat(400, n), false},
		{"occupancy-within-1pct", flat(50, n), drift(flat(400, n), 0.995), true},
		{"occupancy-off-2pct", flat(50, n), drift(flat(400, n), 0.98), false},
		{"length-mismatch", flat(50, n), flat(400, n-1), false},
	}
	for _, c := range cases {
		if got := steady(c.delivered, c.inFlight); got != c.want {
			t.Errorf("%s: steady = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestWarmUpReachesSteadyState warms a saturated torus: it must become
// stationary after the fill-up transient, in whole blocks, and a rerun
// with the same seed must warm up for exactly as long.
func TestWarmUpReachesSteadyState(t *testing.T) {
	run := func() (int64, bool) {
		m, err := NewMesh(Config{K: 8, VCs: 2, BufFlits: 4, Torus: true,
			NewArb: func() sched.Scheduler { return core.New() }})
		if err != nil {
			t.Fatal(err)
		}
		inj := NewInjector(m, 0.2, Uniform{Nodes: m.Nodes()}, rng.NewUniform(1, 8), rng.New(3))
		inj.MaxPending = 2
		return WarmUp(m, 8192, func() {
			inj.Step()
			m.Step()
		})
	}
	warm, ok := run()
	if !ok {
		t.Fatalf("not stationary after %d cycles", warm)
	}
	if warm < 2*warmTestBlocks*warmBlock || warm%warmBlock != 0 {
		t.Errorf("warm-up %d cycles: want whole %d-cycle blocks, at least two %d-block windows", warm, warmBlock, warmTestBlocks)
	}
	if again, _ := run(); again != warm {
		t.Errorf("warm-up not deterministic: %d then %d cycles", warm, again)
	}
	// An idle network is stationary as soon as both windows fill, and
	// a cap below that ends the warm-up unsettled.
	m, err := NewMesh(Config{K: 4, VCs: 2, BufFlits: 4,
		NewArb: func() sched.Scheduler { return core.New() }})
	if err != nil {
		t.Fatal(err)
	}
	if warm, ok := WarmUp(m, 64, m.Step); ok || warm != 64 {
		t.Errorf("idle mesh, cap 64: WarmUp = %d, %v; want 64, false", warm, ok)
	}
	if warm, ok := WarmUp(m, 8192, m.Step); !ok || warm != 2*warmTestBlocks*warmBlock {
		t.Errorf("idle mesh: WarmUp = %d, %v; want %d, true", warm, ok, 2*warmTestBlocks*warmBlock)
	}
}
