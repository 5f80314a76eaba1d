package queue

import (
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"
)

func TestFlowFIFOsPerFlowOrder(t *testing.T) {
	q := NewFlowFIFOs[int](3)
	for i := 0; i < 10; i++ {
		q.Push(i%3, i)
	}
	for f := 0; f < 3; f++ {
		want := f
		for !q.Empty(f) {
			if got := q.Peek(f); got != want {
				t.Fatalf("flow %d: Peek = %d, want %d", f, got, want)
			}
			if got := q.Pop(f); got != want {
				t.Fatalf("flow %d: Pop = %d, want %d", f, got, want)
			}
			want += 3
		}
		if want < 10 {
			t.Fatalf("flow %d drained early at %d", f, want)
		}
	}
}

// TestFlowFIFOsZeroValueGrows: the zero value is usable, and a push
// to a flow past the table extends it; flows past the end are empty.
func TestFlowFIFOsZeroValueGrows(t *testing.T) {
	var q FlowFIFOs[string]
	if len(q.flows) != 0 || q.Len(5) != 0 || !q.Empty(1<<20) {
		t.Fatal("zero value not an empty table")
	}
	q.Push(1000, "a")
	if len(q.flows) != 1001 || q.Len(1000) != 1 || q.Len(999) != 0 {
		t.Fatalf("table covers %d flows, Len(1000) = %d, Len(999) = %d", len(q.flows), q.Len(1000), q.Len(999))
	}
	if got := q.Pop(1000); got != "a" {
		t.Fatalf("Pop = %q", got)
	}
}

// TestFlowFIFOsReusesDrainedSlots pins the steady-state property the
// engine's zero-alloc cycle depends on: slots drained from one flow
// serve the next pushes to any flow, so the slab stops growing once
// it covers the peak number of queued values.
func TestFlowFIFOsReusesDrainedSlots(t *testing.T) {
	q := NewFlowFIFOs[int](64)
	for f := 0; f < 64; f++ {
		q.Push(f, f)
	}
	slab := len(q.slots)
	for round := 0; round < 100; round++ {
		for f := 0; f < 64; f++ {
			q.Pop(f)
			q.Push((f+round)%64, f)
		}
	}
	if len(q.slots) != slab {
		t.Fatalf("slab grew from %d to %d slots under a constant backlog", slab, len(q.slots))
	}
	allocs := testing.AllocsPerRun(100, func() {
		q.Push(7, q.Pop(3))
		q.Push(3, q.Pop(7))
	})
	if allocs != 0 {
		t.Fatalf("steady-state Push/Pop allocated %.1f times per run", allocs)
	}
}

func TestFlowFIFOsPanics(t *testing.T) {
	q := NewFlowFIFOs[int](2)
	q.Push(0, 1)
	q.Pop(0)
	for _, c := range []struct {
		name, msg string
		f         func()
	}{
		{"Pop on empty flow", "Pop from empty flow 0", func() { q.Pop(0) }},
		{"Peek on empty flow", "Peek on empty flow 1", func() { q.Peek(1) }},
		{"Pop past the table", "Pop from empty flow 9", func() { q.Pop(9) }},
		{"Peek on negative flow", "Peek on empty flow -1", func() { q.Peek(-1) }},
		{"Push to negative flow", "negative flow id -1", func() { q.Push(-1, 0) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("did not panic")
				}
				if s, _ := r.(string); !strings.Contains(s, c.msg) {
					t.Fatalf("panic %v, want it to mention %q", r, c.msg)
				}
			}()
			c.f()
		})
	}
}

// TestFlowFIFOsSlabLimit: the slab refuses to grow past the int32
// index range, naming the limit, instead of wrapping an index. A freed
// slot is still usable at the limit, the refused Push leaves every
// queue as it was, and Pop and Peek on an empty flow still panic.
func TestFlowFIFOsSlabLimit(t *testing.T) {
	defer func(n int) { maxSlots = n }(maxSlots)
	maxSlots = 4 // the sentinel and three values
	var q FlowFIFOs[int]
	for i := 0; i < 3; i++ {
		q.Push(i, i)
	}
	q.Push(0, q.Pop(1))
	func() {
		defer func() {
			if s, _ := recover().(string); !strings.Contains(s, "int32 index limit") {
				t.Fatalf("push past the limit: panic %q, want the int32 index limit named", s)
			}
		}()
		q.Push(1, 9)
	}()
	if q.Len(0) != 2 || q.Len(1) != 0 || q.Len(2) != 1 || len(q.slots) != maxSlots {
		t.Fatalf("after the refused push: lens %d %d %d, %d slots", q.Len(0), q.Len(1), q.Len(2), len(q.slots))
	}
	for _, c := range []struct {
		name string
		f    func()
	}{{"Pop", func() { q.Pop(1) }}, {"Peek", func() { q.Peek(1) }}} {
		func() {
			defer func() {
				if s, _ := recover().(string); !strings.Contains(s, "empty flow 1") {
					t.Fatalf("%s on the empty flow at the limit: panic %q", c.name, s)
				}
			}()
			c.f()
		}()
	}
	if got := []int{q.Peek(0), q.Pop(0), q.Pop(0), q.Pop(2)}; got[0] != 0 || got[1] != 0 || got[2] != 1 || got[3] != 2 {
		t.Fatalf("values at the limit: Peek(0), Pop(0), Pop(0), Pop(2) = %v, want [0 0 1 2]", got)
	}
}

// FuzzFlowFIFOs checks the shared slab against a reference of one Go
// slice per flow. Each 3-byte record of the input is one operation:
// the first byte picks Push, Pop or Peek, the next two a flow id
// (some of them past the current table), so drains, refills and
// free-list reuse interleave across flows.
func FuzzFlowFIFOs(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 1, 1, 0, 0, 2, 0, 1})
	f.Add([]byte{0, 0, 200, 0, 1, 0, 0, 0, 200, 1, 0, 200, 1, 0, 200, 0, 0, 3})
	seed := make([]byte, 3*512)
	rand.New(rand.NewSource(1)).Read(seed)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, ops []byte) {
		var q FlowFIFOs[int]
		var ref [][]int
		queued, peak, next := 0, 0, 0
		for i := 0; i+3 <= len(ops); i += 3 {
			flow := int(binary.LittleEndian.Uint16(ops[i+1:])) % 1024
			refLen := 0
			if flow < len(ref) {
				refLen = len(ref[flow])
			}
			switch op := ops[i] % 3; {
			case op == 0 || refLen == 0 && op == 1:
				q.Push(flow, next)
				for len(ref) <= flow {
					ref = append(ref, nil)
				}
				ref[flow] = append(ref[flow], next)
				next++
				queued++
				peak = max(peak, queued)
			case op == 1:
				if got, want := q.Pop(flow), ref[flow][0]; got != want {
					t.Fatalf("op %d: Pop(%d) = %d, want %d", i/3, flow, got, want)
				}
				ref[flow] = ref[flow][1:]
				queued--
			case refLen > 0:
				if got, want := q.Peek(flow), ref[flow][0]; got != want {
					t.Fatalf("op %d: Peek(%d) = %d, want %d", i/3, flow, got, want)
				}
			}
			want := 0
			if flow < len(ref) {
				want = len(ref[flow])
			}
			if got := q.Len(flow); got != want {
				t.Fatalf("op %d: Len(%d) = %d, want %d", i/3, flow, got, want)
			}
			// Free-list reuse: the slab never holds more slots than
			// the peak number of values queued at once (plus the
			// sentinel).
			if len(q.slots) > peak+1 {
				t.Fatalf("op %d: slab has %d slots for a peak of %d queued values", i/3, len(q.slots), peak)
			}
		}
		for flow := range ref {
			if got := q.Len(flow); got != len(ref[flow]) {
				t.Fatalf("end: Len(%d) = %d, want %d", flow, got, len(ref[flow]))
			}
			for _, want := range ref[flow] {
				if got := q.Pop(flow); got != want {
					t.Fatalf("end: Pop(%d) = %d, want %d", flow, got, want)
				}
			}
		}
	})
}
