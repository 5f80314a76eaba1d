package obs

import (
	"math/bits"
	"sync/atomic"
)

// HistogramOpts selects the bucket layout of a Histogram.
//
// The zero value (Log2 false, Width 0, Buckets 0) selects the default
// log2 layout: one bucket per power of two, which covers the full
// int64 range in 64 buckets and gives ~2x relative quantile error —
// plenty for delay/occupancy distributions that span orders of
// magnitude on long runs.
type HistogramOpts struct {
	// Log2 selects exponentially sized buckets: bucket 0 holds values
	// <= 0, bucket i (i >= 1) holds values in [2^(i-1), 2^i - 1].
	Log2 bool
	// Width and Buckets select a linear layout instead: Buckets
	// buckets of Width each, bucket i holding [i*Width, (i+1)*Width-1];
	// values beyond the last bucket land in an overflow bucket whose
	// reported upper bound is the exact observed maximum.
	Width   int64
	Buckets int
}

// Histogram is a fixed-bucket distribution of int64 observations.
// Observe is a bucket-index computation plus three atomic operations.
// It allocates only the first time an observation lands in one of a
// linear layout's bucket pages; a log2 layout's 65 buckets are
// allocated up front, so its Observe never allocates.
type Histogram struct {
	log2     bool
	width    int64
	nbuckets int
	// pages holds the buckets, histPageSize to a page. A nil page has
	// no observations yet; Observe installs it with a CAS.
	pages []atomic.Pointer[histPage]
	count atomic.Int64
	sum   atomic.Int64
	max   atomic.Int64
}

// histPageSize is the number of buckets allocated together. A linear
// histogram spans thousands of buckets of which a run typically
// touches a few dozen, so paging keeps it to a few hundred bytes.
const histPageSize = 64

type histPage [histPageSize]atomic.Int64

func newHistogram(opts HistogramOpts) *Histogram {
	if !opts.Log2 && (opts.Width <= 0 || opts.Buckets <= 0) {
		opts.Log2 = true
	}
	h := &Histogram{log2: opts.Log2, width: opts.Width}
	if h.log2 {
		// Bucket 0 for v <= 0, buckets 1..64 for the 64 powers of two.
		h.nbuckets = 65
	} else {
		// One extra overflow bucket.
		h.nbuckets = opts.Buckets + 1
	}
	h.pages = make([]atomic.Pointer[histPage], (h.nbuckets+histPageSize-1)/histPageSize)
	if h.log2 {
		pages := make([]histPage, len(h.pages))
		for i := range pages {
			h.pages[i].Store(&pages[i])
		}
	}
	return h
}

// NewHistogram returns a standalone (unregistered) histogram; tests
// and collectors that snapshot through their own structs use this.
func NewHistogram(opts HistogramOpts) *Histogram { return newHistogram(opts) }

func (h *Histogram) bucket(v int64) int {
	var i int
	if h.log2 {
		if v > 0 {
			i = bits.Len64(uint64(v))
		}
	} else {
		if v > 0 {
			i = int(v / h.width)
		}
		if i >= h.nbuckets {
			i = h.nbuckets - 1
		}
	}
	return i
}

// upper returns the inclusive upper bound of bucket i, used as the
// quantile estimate for observations that landed there.
func (h *Histogram) upper(i int) int64 {
	if h.log2 {
		if i == 0 {
			return 0
		}
		if i >= 63 {
			return h.max.Load()
		}
		return int64(1)<<i - 1
	}
	if i == h.nbuckets-1 {
		return h.max.Load()
	}
	return int64(i+1)*h.width - 1
}

// counter returns bucket i's counter, installing its page on first
// touch. Of two racing installs the CAS keeps one, and both callers
// count into it.
func (h *Histogram) counter(i int) *atomic.Int64 {
	pp := &h.pages[i/histPageSize]
	p := pp.Load()
	if p == nil {
		p = new(histPage)
		if !pp.CompareAndSwap(nil, p) {
			p = pp.Load()
		}
	}
	return &p[i%histPageSize]
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.counter(h.bucket(v)).Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Max returns the largest observation (0 for an empty histogram).
func (h *Histogram) Max() int64 { return h.max.Load() }

// Mean returns the mean observation (0 for an empty histogram).
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Quantile returns an upper-bound estimate of the q-quantile
// (0 <= q <= 1): the upper bound of the bucket in which the q-th
// ranked observation lies. Returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) int64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var cum int64
	for pi := range h.pages {
		p := h.pages[pi].Load()
		if p == nil {
			continue // an untouched page holds no observations
		}
		for j := range p {
			cum += p[j].Load()
			if cum > rank {
				u := h.upper(pi*histPageSize + j)
				if m := h.max.Load(); u > m {
					// The top occupied bucket's nominal bound can
					// exceed anything actually observed; the max is
					// tighter.
					u = m
				}
				return u
			}
		}
	}
	return h.max.Load()
}

// HistogramSnapshot is the JSON-marshalable summary of a Histogram.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P95   int64   `json:"p95"`
	P99   int64   `json:"p99"`
	P999  int64   `json:"p999"`
	Max   int64   `json:"max"`
}

// Snapshot summarizes the histogram.
func (h *Histogram) Snapshot() HistogramSnapshot {
	return HistogramSnapshot{
		Count: h.Count(),
		Sum:   h.Sum(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
		P999:  h.Quantile(0.999),
		Max:   h.Max(),
	}
}
