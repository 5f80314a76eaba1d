package noc

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sched"
)

// BenchmarkNoCFanOut measures where fanning a cycle out over the pool
// starts to pay; stepGrain is read from its table (BENCH_noc.json
// "fan_out_crossover"). It steps saturated meshes and tori at
// K = 16..64 three ways:
//   - w1: no pool, every cycle inline;
//   - w2: two workers at the production grain;
//   - paired: two workers, alternating 32-cycle blocks stepped inline
//     and fanned out (grain 1, the rule before stepGrain) on one mesh.
//
// The paired case reports inline-ns/cycle, fanout-ns/cycle and their
// ratio, fanout-speedup. The grain changes only which goroutine runs a
// tile, never the simulated state, so both halves step the same
// trajectory and share whatever load the host carries at the time: on
// a noisy host the ratio holds where w1 and w2 run minutes apart do
// not. After the timed loop each case steps 200 more cycles with
// telemetry attached and reports active routers per stepped cycle and
// the share of stepped cycles that fanned out. stepGrain is half the
// active count at which fanout-speedup crosses 1.
func BenchmarkNoCFanOut(b *testing.B) {
	for _, torus := range []bool{false, true} {
		topo := "mesh"
		if torus {
			topo = "torus"
		}
		for _, k := range []int{16, 24, 32, 48, 64} {
			for _, mode := range []string{"w1", "w2", "paired"} {
				b.Run(fmt.Sprintf("%s%dx%d/%s", topo, k, k, mode), func(b *testing.B) {
					benchFanOut(b, k, torus, mode)
				})
			}
		}
	}
}

func benchFanOut(b *testing.B, k int, torus bool, mode string) {
	m, err := NewMesh(Config{K: k, VCs: 2, BufFlits: 8, Torus: torus,
		NewArb: func() sched.Scheduler { return core.New() }})
	if err != nil {
		b.Fatal(err)
	}
	if mode != "w1" {
		p := exec.NewPool(2)
		defer p.Close()
		m.SetPool(p)
	}
	inj := NewInjector(m, 0.30, Uniform{Nodes: m.Nodes()}, rng.NewUniform(1, 8), rng.New(5))
	inj.MaxPending = 4
	step := func() {
		inj.Step()
		m.Step()
	}
	for c := 0; c < 2000; c++ {
		step()
	}
	b.ResetTimer()
	if mode == "paired" {
		const block = 32
		var ns [2]time.Duration
		var cycles [2]int
		for i := 0; i < b.N; i += block {
			half := (i / block) % 2 // 0 inline, 1 fanned out
			m.grain = [2]int{math.MaxInt, 1}[half]
			n := min(block, b.N-i)
			t0 := time.Now()
			for j := 0; j < n; j++ {
				step()
			}
			ns[half] += time.Since(t0)
			cycles[half] += n
		}
		m.grain = stepGrain
		if cycles[1] > 0 {
			inline := float64(ns[0].Nanoseconds()) / float64(cycles[0])
			fanned := float64(ns[1].Nanoseconds()) / float64(cycles[1])
			b.ReportMetric(inline, "inline-ns/cycle")
			b.ReportMetric(fanned, "fanout-ns/cycle")
			b.ReportMetric(inline/fanned, "fanout-speedup")
		}
	} else {
		for i := 0; i < b.N; i++ {
			step()
		}
	}
	b.StopTimer()
	reg := obs.NewRegistry()
	m.RegisterObs(reg)
	for c := 0; c < 200; c++ {
		step()
	}
	cycles := float64(reg.Counter("noc.cycles").Value())
	b.ReportMetric(float64(reg.Counter("noc.router_computes").Value())/cycles, "active/cycle")
	b.ReportMetric(float64(reg.Counter("noc.fanout_cycles").Value())/cycles, "fanout-share")
}
