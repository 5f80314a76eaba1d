package sched

import (
	"math"
	"testing"
	"testing/quick"
)

// White-box tests of the shared machinery: the tag heap and ring
// buffers every discipline builds on.

func TestTagHeapOrdering(t *testing.T) {
	h := newTagHeap()
	h.push(3, 5.0)
	h.push(1, 2.0)
	h.push(2, 9.0)
	if f, tag := h.peekMin(); f != 1 || tag != 2.0 {
		t.Fatalf("peekMin = (%d,%v)", f, tag)
	}
	order := []int{}
	for h.Len() > 0 {
		f, _ := h.popMin()
		order = append(order, f)
	}
	want := []int{1, 3, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("pop order %v, want %v", order, want)
		}
	}
}

func TestTagHeapTieBreakDeterministic(t *testing.T) {
	h := newTagHeap()
	h.push(7, 1.0)
	h.push(2, 1.0)
	h.push(5, 1.0)
	order := []int{}
	for h.Len() > 0 {
		f, _ := h.popMin()
		order = append(order, f)
	}
	// Equal tags break ties by flow id.
	want := []int{2, 5, 7}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("tie-break order %v, want %v", order, want)
		}
	}
}

func TestTagHeapPanics(t *testing.T) {
	h := newTagHeap()
	assertPanics(t, "popMin empty", func() { h.popMin() })
	assertPanics(t, "peekMin empty", func() { h.peekMin() })
	h.push(1, 1.0)
	assertPanics(t, "duplicate push", func() { h.push(1, 2.0) })
}

// Property: the tag heap pops tags in non-decreasing order for any
// insertion sequence of unique flows.
func TestTagHeapSortedProperty(t *testing.T) {
	prop := func(tags []float64) bool {
		h := newTagHeap()
		for i, tg := range tags {
			if math.IsNaN(tg) {
				tg = 0 // NaN tags are meaningless; normalise
			}
			h.push(i, tg)
		}
		last := math.Inf(-1)
		for h.Len() > 0 {
			_, tg := h.popMin()
			if tg < last {
				return false
			}
			last = tg
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFifoIntWrap(t *testing.T) {
	var q fifoInt
	for round := 0; round < 20; round++ {
		for i := 0; i < 5; i++ {
			q.push(round*5 + i)
		}
		for i := 0; i < 5; i++ {
			if got := q.pop(); got != round*5+i {
				t.Fatalf("round %d: got %d", round, got)
			}
		}
	}
	if q.len() != 0 || !q.empty() {
		t.Error("fifo not empty after balanced ops")
	}
	assertPanics(t, "pop empty", func() { q.pop() })
	assertPanics(t, "peek empty", func() { q.peek() })
}

func TestFifoF64Wrap(t *testing.T) {
	var q fifoF64
	for i := 0; i < 100; i++ {
		q.push(float64(i))
	}
	for i := 0; i < 100; i++ {
		if q.peek() != float64(i) {
			t.Fatalf("peek at %d wrong", i)
		}
		if q.pop() != float64(i) {
			t.Fatalf("pop at %d wrong", i)
		}
	}
	assertPanics(t, "pop empty", func() { q.pop() })
}

func TestWeightFnValidation(t *testing.T) {
	w := weightFn(func(int) float64 { return -1 })
	assertPanics(t, "negative weight", func() { w(0) })
	def := weightFn(nil)
	if def(42) != 1 {
		t.Error("nil weight fn should default to 1")
	}
}

func TestDRRPerFlowQuantum(t *testing.T) {
	d := NewDRR(0, func(flow int) int64 { return int64(flow+1) * 10 })
	d.OnArrival(0, true)
	d.OnArrivalLength(0, 10)
	d.OnArrival(1, true)
	d.OnArrivalLength(1, 20)
	// Flow 0: quantum 10 fits its 10-flit packet; flow 1: quantum 20
	// fits its 20-flit packet. Both serve on first visit.
	if f := d.NextFlow(); f != 0 {
		t.Fatalf("first flow %d", f)
	}
	d.OnPacketDone(0, 10, true)
	if f := d.NextFlow(); f != 1 {
		t.Fatalf("second flow %d", f)
	}
	d.OnPacketDone(1, 20, true)
}

func TestNewDRRValidation(t *testing.T) {
	assertPanics(t, "quantum 0", func() { NewDRR(0, nil) })
}

// A per-flow quantum function returning < 1 must panic at first use,
// naming the flow and value — before the fix, NextFlow's rotate loop
// spun forever because the deficit never grew to fit a packet.
func TestDRRPerFlowQuantumValidation(t *testing.T) {
	d := NewDRR(0, func(flow int) int64 { return int64(flow) }) // flow 0 -> 0
	d.OnArrival(0, true)
	d.OnArrivalLength(0, 4)
	assertPanicsWith(t, "per-flow quantum 0", "sched: DRR quantum 0 < 1 for flow 0",
		func() { d.NextFlow() })
}

// Validation panics must name the offending flow and value across
// the round-robin family, so a bad weight table is diagnosable from
// the message alone.
func TestRoundRobinValidationMessages(t *testing.T) {
	cases := []struct {
		name, want string
		trigger    func()
	}{
		{"WRR zero weight", "sched: WRR weight 0 < 1 for flow 3", func() {
			w := NewWRR(func(int) int { return 0 })
			w.OnArrival(3, true)
			w.NextFlow()
		}},
		{"IWRR negative weight", "sched: IWRR weight -2 < 1 for flow 1", func() {
			s := NewIWRR(func(int) int { return -2 })
			s.OnArrival(1, true)
			s.NextFlow()
		}},
		{"DRR fixed quantum", "sched: DRR quantum -5 < 1", func() {
			NewDRR(-5, nil)
		}},
		{"DRR per-flow quantum", "sched: DRR quantum -1 < 1 for flow 2", func() {
			d := NewDRR(0, func(int) int64 { return -1 })
			d.OnArrival(2, true)
			d.OnArrivalLength(2, 4)
			d.NextFlow()
		}},
		{"DRR-OPT missing flow", "sched: DRR-OPT has no quantum for flow 1 (table has 1 flows)", func() {
			d := NewOptDRR([]int64{8})
			d.OnArrival(1, true)
			d.OnArrivalLength(1, 4)
			d.NextFlow()
		}},
	}
	for _, c := range cases {
		assertPanicsWith(t, c.name, c.want, c.trigger)
	}
}

func TestWRRInvalidWeightPanics(t *testing.T) {
	w := NewWRR(func(int) int { return 0 })
	w.OnArrival(0, true)
	assertPanics(t, "weight 0", func() { w.NextFlow() })
}

func assertPanicsWith(t *testing.T, name, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Errorf("%s did not panic", name)
			return
		}
		if msg, ok := r.(string); !ok || msg != want {
			t.Errorf("%s panicked with %v, want %q", name, r, want)
		}
	}()
	f()
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

// TestDRRTableSlackHasNoLength: flow ids past the highest activated
// one, including the deficit table's capacity slack [len, cap), have
// no recorded length, no deficit and are not active, and headLen
// panics on them. Once every flow drains, no flow keeps a length in
// the shared slab, and refilling reuses the freed slots with the new
// lengths, not stale ones.
func TestDRRTableSlackHasNoLength(t *testing.T) {
	const n = 1000
	d := NewDRR(64, nil)
	for id := 0; id < n; id++ {
		d.OnArrival(id, true)
		d.OnArrivalLength(id, 1)
	}
	if len(d.deficit) == cap(d.deficit) {
		t.Fatalf("no capacity slack to probe (len = cap = %d)", cap(d.deficit))
	}
	noLength := func(id int, where string) {
		t.Helper()
		if d.lengths.Len(id) != 0 || d.active.Contains(id) {
			t.Fatalf("flow %d %s has a recorded length or is active", id, where)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("headLen(%d) %s did not panic", id, where)
				}
			}()
			d.headLen(id)
		}()
	}
	for id := n; id < max(2*n, cap(d.deficit)); id++ {
		noLength(id, "past the highest activated id")
	}
	for id := len(d.deficit); id < cap(d.deficit); id++ {
		if v := d.deficit[:cap(d.deficit)][id]; v != 0 {
			t.Fatalf("deficit[%d] in capacity slack = %d, want 0", id, v)
		}
	}
	for i := 0; i < n; i++ {
		d.OnPacketDone(d.NextFlow(), 1, true)
	}
	for id := 0; id < n; id++ {
		noLength(id, "after the drain")
	}
	for id := n - 1; id >= 0; id-- {
		d.OnArrival(id, true)
		d.OnArrivalLength(id, 2)
	}
	for id := 0; id < n; id++ {
		if got := d.headLen(id); got != 2 {
			t.Fatalf("refilled flow %d: headLen = %d, want 2", id, got)
		}
	}
}
