package obs

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// refQuantile is the brute-force reference for a linear histogram's
// Quantile: sort the observations, take the q-ranked one, and report
// the inclusive upper bound of its bucket (the observed maximum for
// the overflow bucket), clamped to the maximum. The maximum starts at
// zero, as the histogram's does.
func refQuantile(vals []int64, width int64, buckets int, q float64) int64 {
	if len(vals) == 0 {
		return 0
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	top := max(0, s[len(s)-1])
	q = min(max(q, 0), 1)
	rank := min(int(q*float64(len(s))), len(s)-1)
	v := s[rank]
	b := 0
	if v > 0 {
		b = int(v / width)
	}
	if b >= buckets {
		return top // overflow bucket
	}
	return min(int64(b+1)*width-1, top)
}

// TestHistogramLinearMatchesBruteForce checks paged linear buckets
// against refQuantile, for the serve layout (1 ms x 4096) and layouts
// whose bucket count is not a multiple of the page size, with samples
// that skip whole pages, go negative and overflow the last bucket.
func TestHistogramLinearMatchesBruteForce(t *testing.T) {
	qs := []float64{-1, 0, 0.001, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1, 2}
	for _, layout := range []struct {
		width   int64
		buckets int
	}{{1, 4096}, {10, 10}, {3, 200}, {7, 64}, {1, 65}} {
		span := layout.width * int64(layout.buckets)
		rng := rand.New(rand.NewSource(span))
		for trial := 0; trial < 20; trial++ {
			h := NewHistogram(HistogramOpts{Width: layout.width, Buckets: layout.buckets})
			var vals []int64
			for i := rng.Intn(300); i >= 0; i-- {
				var v int64
				switch rng.Intn(8) {
				case 0:
					v = -rng.Int63n(5) // non-positive: bucket 0
				case 1:
					v = span + rng.Int63n(3*span) // overflow
				case 2:
					v = span - 1 // the last regular bucket
				default:
					// Clustered, so most pages stay untouched.
					v = int64(trial%4)*span/4 + rng.Int63n(max(1, span/40))
				}
				vals = append(vals, v)
				h.Observe(v)
			}
			for _, q := range qs {
				if got, want := h.Quantile(q), refQuantile(vals, layout.width, layout.buckets, q); got != want {
					t.Fatalf("width %d x %d buckets, trial %d, %d samples: Quantile(%v) = %d, reference %d",
						layout.width, layout.buckets, trial, len(vals), q, got, want)
				}
			}
			snap := h.Snapshot()
			ref := func(q float64) int64 { return refQuantile(vals, layout.width, layout.buckets, q) }
			if snap.Count != int64(len(vals)) || snap.P50 != ref(0.5) || snap.P99 != ref(0.99) || snap.P999 != ref(0.999) {
				t.Fatalf("width %d x %d buckets, trial %d: snapshot %+v disagrees with the reference", layout.width, layout.buckets, trial, snap)
			}
		}
	}
}

// TestHistogramLinearPagesOnFirstTouch: a linear histogram holds no
// buckets until an observation lands in them, then one page per
// touched range, so a 4097-bucket latency histogram whose samples all
// fall below 64 ms holds one 512-byte page.
func TestHistogramLinearPagesOnFirstTouch(t *testing.T) {
	h := NewHistogram(HistogramOpts{Width: 1, Buckets: 4096})
	pages := func() (n int) {
		for i := range h.pages {
			if h.pages[i].Load() != nil {
				n++
			}
		}
		return n
	}
	if got := pages(); got != 0 {
		t.Fatalf("fresh histogram holds %d pages, want 0", got)
	}
	for v := int64(-3); v < histPageSize; v++ {
		h.Observe(v)
	}
	if got := pages(); got != 1 {
		t.Fatalf("observations in [-3, 63] installed %d pages, want 1", got)
	}
	h.Observe(1 << 20) // overflow: the last page
	if got := pages(); got != 2 {
		t.Fatalf("an overflow observation left %d pages, want 2", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { h.Observe(17) }); allocs != 0 {
		t.Fatalf("Observe into an installed page allocated %.1f times", allocs)
	}
	log2 := NewHistogram(HistogramOpts{Log2: true})
	if allocs := testing.AllocsPerRun(100, func() { log2.Observe(1 << 40) }); allocs != 0 {
		t.Fatalf("log2 Observe allocated %.1f times", allocs)
	}
}

// TestHistogramConcurrentPageInstall races first touches of the same
// fresh pages: the losing installs must not drop counts.
func TestHistogramConcurrentPageInstall(t *testing.T) {
	for round := 0; round < 20; round++ {
		h := NewHistogram(HistogramOpts{Width: 1, Buckets: 4096})
		const workers, per = 8, 64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int64(0); i < per; i++ {
					h.Observe(1000 + i%3)
				}
			}()
		}
		wg.Wait()
		var sum int64
		for v := 0; v < h.nbuckets; v++ {
			if p := h.pages[v/histPageSize].Load(); p != nil {
				sum += p[v%histPageSize].Load()
			}
		}
		if sum != workers*per || h.Count() != workers*per {
			t.Fatalf("round %d: buckets hold %d, count %d, want %d", round, sum, h.Count(), workers*per)
		}
	}
}
