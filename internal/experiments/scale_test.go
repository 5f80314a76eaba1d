package experiments

import (
	"strings"
	"testing"
)

// TestRunScaleWarmsUpToSteadyState runs a scaled-down sweep: every
// point must warm up to the stationarity test in whole blocks, the
// worker lanes (one simulation under different pool sizes) must agree
// on every deterministic column including the warm-up length, and a
// cap below the test's two windows must mark each point unsettled.
func TestRunScaleWarmsUpToSteadyState(t *testing.T) {
	p := DefaultScaleParams()
	p.Ks = []int{16}
	p.RouterCycles, p.MinCycles = 0, 64
	p.StepWorkers = []int{1, 2}
	res, err := RunScale(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 5 {
		t.Fatalf("%d points, want 3 lanes + 2 worker lanes", len(res.Points))
	}
	for _, pt := range res.Points {
		// The hotspot lane does not settle on a torus this small
		// within the cap; the sweep reports that rather than hiding
		// it, so only its block arithmetic is checked.
		settled := pt.Stationary || pt.Lane == "hotspot"
		if !settled || pt.WarmupCycles < 256 || pt.WarmupCycles%16 != 0 || pt.WarmupCycles > p.MaxWarmCycles+16 {
			t.Errorf("%s: warm-up %d cycles, stationary %v", pt.Lane, pt.WarmupCycles, pt.Stationary)
		}
	}
	w1, w2 := res.Points[3], res.Points[4]
	if w1.WarmupCycles != w2.WarmupCycles || w1.DeliveredPackets != w2.DeliveredPackets ||
		w1.MeanLatency != w2.MeanLatency || w1.CrossShardShare != w2.CrossShardShare {
		t.Errorf("worker lanes diverge:\n  %+v\n  %+v", w1, w2)
	}

	p.StepWorkers = nil
	p.MaxWarmCycles = 24
	res, err = RunScale(p)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := res.Render(&out); err != nil {
		t.Fatal(err)
	}
	for _, pt := range res.Points {
		if pt.Stationary || pt.WarmupCycles != 32 {
			t.Errorf("%s capped at 24: warm-up %d cycles, stationary %v; want 32 (two blocks), false", pt.Lane, pt.WarmupCycles, pt.Stationary)
		}
	}
	if !strings.Contains(out.String(), " 32* ") {
		t.Errorf("render does not mark the capped warm-up:\n%s", out.String())
	}
}
