package noc

import "math"

// warmBlock is the warm-up test block in cycles, and warmTestBlocks
// the number of blocks in each of the two windows WarmUp compares.
const (
	warmBlock      = 16
	warmTestBlocks = 8
)

// steady reports whether per-block samples of delivered flits and
// in-flight packets show steady state: the mean delivered rate of the
// last warmTestBlocks blocks is within 3% of the warmTestBlocks before
// them, and their mean in-flight count within 1%. A loaded network
// first fills past its stationary occupancy and then settles; the
// windows are long enough that the overshoot's peak does not pass.
func steady(delivered, inFlight []float64) bool {
	l := len(delivered)
	if l < 2*warmTestBlocks || len(inFlight) != l {
		return false
	}
	a, b := l-2*warmTestBlocks, l-warmTestBlocks
	return near(mean(delivered[b:]), mean(delivered[a:b]), 0.03) &&
		near(mean(inFlight[b:]), mean(inFlight[a:b]), 0.01)
}

// WarmUp calls step, which injects and advances m one cycle, in blocks
// of warmBlock cycles until m is stationary or maxCycles have run. It
// returns the warm-up length and whether steady state was reached.
// The length is a function of simulated state only, so a seeded run
// warms up for the same number of cycles on any host.
func WarmUp(m *Mesh, maxCycles int64, step func()) (cycles int64, settled bool) {
	var delivered, inFlight []float64
	prev := m.deliveredFlits()
	for !steady(delivered, inFlight) {
		if cycles >= maxCycles {
			return cycles, false
		}
		for i := 0; i < warmBlock; i++ {
			step()
		}
		cycles += warmBlock
		f := m.deliveredFlits()
		delivered = append(delivered, float64(f-prev))
		inFlight = append(inFlight, float64(m.InFlight()))
		prev = f
	}
	return cycles, true
}

// deliveredFlits totals DeliveredFlits over every source.
func (m *Mesh) deliveredFlits() (n int64) {
	for _, f := range m.DeliveredFlits {
		n += f
	}
	return n
}

func near(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
