package queue

import (
	"testing"
	"testing/quick"

	"repro/internal/flit"
)

func TestPacketQueueFIFO(t *testing.T) {
	var q PacketQueue
	if !q.Empty() || q.Len() != 0 {
		t.Fatal("zero value not empty")
	}
	for i := 1; i <= 100; i++ {
		q.Push(flit.Packet{Flow: i, Length: i})
	}
	if q.Len() != 100 {
		t.Fatalf("Len = %d, want 100", q.Len())
	}
	wantFlits := int64(100 * 101 / 2)
	if q.FlitBacklog() != wantFlits {
		t.Fatalf("FlitBacklog = %d, want %d", q.FlitBacklog(), wantFlits)
	}
	for i := 1; i <= 100; i++ {
		if got := q.Peek(); got.Flow != i {
			t.Fatalf("Peek().Flow = %d, want %d", got.Flow, i)
		}
		if got := q.Pop(); got.Flow != i || got.Length != i {
			t.Fatalf("Pop() = %+v, want flow/len %d", got, i)
		}
	}
	if !q.Empty() || q.FlitBacklog() != 0 {
		t.Fatal("queue not empty after draining")
	}
}

func TestPacketQueueInterleavedPushPop(t *testing.T) {
	var q PacketQueue
	next := 0
	out := 0
	for round := 0; round < 50; round++ {
		for i := 0; i < 3; i++ {
			q.Push(flit.Packet{ID: int64(next), Length: 1})
			next++
		}
		for i := 0; i < 2; i++ {
			p := q.Pop()
			if p.ID != int64(out) {
				t.Fatalf("Pop order broken: got id %d, want %d", p.ID, out)
			}
			out++
		}
	}
	// Drain the remainder.
	for !q.Empty() {
		p := q.Pop()
		if p.ID != int64(out) {
			t.Fatalf("drain order broken: got id %d, want %d", p.ID, out)
		}
		out++
	}
	if out != next {
		t.Fatalf("drained %d packets, pushed %d", out, next)
	}
}

func TestPacketQueuePanics(t *testing.T) {
	var q PacketQueue
	assertPanics(t, "Pop", func() { q.Pop() })
	assertPanics(t, "Peek", func() { q.Peek() })
}

// TestPacketQueueShrinksAfterBurst pins the memory-retention fix: a
// queue that absorbed a large burst must release the burst's backing
// array as it drains instead of holding its high-water capacity
// forever.
func TestPacketQueueShrinksAfterBurst(t *testing.T) {
	var q PacketQueue
	const burst = 1 << 14
	for i := 0; i < burst; i++ {
		q.Push(flit.Packet{ID: int64(i), Length: 1})
	}
	peak := q.Cap()
	if peak < burst {
		t.Fatalf("Cap = %d after %d pushes", peak, burst)
	}
	for i := 0; i < burst; i++ {
		if p := q.Pop(); p.ID != int64(i) {
			t.Fatalf("FIFO order broken during shrink: got %d, want %d", p.ID, i)
		}
	}
	if q.Cap() > shrinkCap {
		t.Fatalf("Cap = %d after drain, want <= %d (peak was %d)", q.Cap(), shrinkCap, peak)
	}
	// The queue stays fully usable after shrinking.
	q.Push(flit.Packet{ID: 99, Length: 2})
	if q.Pop().ID != 99 || !q.Empty() {
		t.Fatal("queue unusable after shrink")
	}
}

// TestPacketQueueShrinkKeepsOrderUnderChurn interleaves pushes and
// pops across grow/shrink boundaries and checks strict FIFO order.
func TestPacketQueueShrinkKeepsOrderUnderChurn(t *testing.T) {
	var q PacketQueue
	next, out := 0, 0
	// Ramp up past several grow steps, then drain below shrink
	// thresholds, repeatedly.
	for cycle := 0; cycle < 6; cycle++ {
		for i := 0; i < 500; i++ {
			q.Push(flit.Packet{ID: int64(next), Length: 1})
			next++
		}
		for i := 0; i < 480; i++ {
			if p := q.Pop(); p.ID != int64(out) {
				t.Fatalf("cycle %d: got %d, want %d", cycle, p.ID, out)
			}
			out++
		}
	}
	for !q.Empty() {
		if p := q.Pop(); p.ID != int64(out) {
			t.Fatalf("drain: got %d, want %d", p.ID, out)
		}
		out++
	}
	if out != next {
		t.Fatalf("popped %d, pushed %d", out, next)
	}
}

func TestFlitQueueBounded(t *testing.T) {
	q := NewFlitQueue(3)
	if q.Cap() != 3 || q.Free() != 3 {
		t.Fatalf("Cap/Free = %d/%d, want 3/3", q.Cap(), q.Free())
	}
	for i := 0; i < 3; i++ {
		if !q.Push(flit.Flit{Seq: i}) {
			t.Fatalf("Push %d rejected before full", i)
		}
	}
	if !q.Full() || q.Free() != 0 {
		t.Fatal("queue should be full")
	}
	if q.Push(flit.Flit{Seq: 3}) {
		t.Fatal("Push accepted on full queue")
	}
	if f := q.Pop(); f.Seq != 0 {
		t.Fatalf("Pop Seq = %d, want 0", f.Seq)
	}
	if q.Full() {
		t.Fatal("queue still full after Pop")
	}
	if !q.Push(flit.Flit{Seq: 3}) {
		t.Fatal("Push rejected after freeing a slot")
	}
	// Remaining order must be 1,2,3.
	for want := 1; want <= 3; want++ {
		if f := q.Pop(); f.Seq != want {
			t.Fatalf("Pop Seq = %d, want %d", f.Seq, want)
		}
	}
}

func TestFlitQueueUnbounded(t *testing.T) {
	q := NewFlitQueue(0)
	for i := 0; i < 1000; i++ {
		if !q.Push(flit.Flit{Seq: i}) {
			t.Fatalf("unbounded Push %d rejected", i)
		}
	}
	if q.Full() {
		t.Fatal("unbounded queue reported full")
	}
	if q.Free() <= 0 {
		t.Fatal("unbounded Free() not positive")
	}
	for i := 0; i < 1000; i++ {
		if f := q.Pop(); f.Seq != i {
			t.Fatalf("order broken at %d", i)
		}
	}
}

func TestFlitQueuePanics(t *testing.T) {
	q := NewFlitQueue(2)
	assertPanics(t, "Pop", func() { q.Pop() })
	assertPanics(t, "Peek", func() { q.Peek() })
}

func TestActiveListBasics(t *testing.T) {
	var l ActiveList
	if !l.Empty() {
		t.Fatal("zero value not empty")
	}
	l.PushTail(5)
	l.PushTail(2)
	l.PushTail(9)
	if l.Len() != 3 {
		t.Fatalf("Len = %d, want 3", l.Len())
	}
	if !l.Contains(5) || !l.Contains(2) || !l.Contains(9) {
		t.Fatal("Contains lost a member")
	}
	if l.Contains(0) || l.Contains(100) {
		t.Fatal("Contains reported a non-member")
	}
	if got := l.PeekHead(); got != 5 {
		t.Fatalf("PeekHead = %d, want 5", got)
	}
	if got := l.Snapshot(); len(got) != 3 || got[0] != 5 || got[1] != 2 || got[2] != 9 {
		t.Fatalf("Snapshot = %v", got)
	}
	if got := l.PopHead(); got != 5 {
		t.Fatalf("PopHead = %d, want 5", got)
	}
	if l.Contains(5) {
		t.Fatal("popped flow still a member")
	}
	// Re-adding after pop is the normal round-robin cycle.
	l.PushTail(5)
	want := []int{2, 9, 5}
	for _, w := range want {
		if got := l.PopHead(); got != w {
			t.Fatalf("PopHead = %d, want %d", got, w)
		}
	}
}

func TestActiveListPanics(t *testing.T) {
	var l ActiveList
	assertPanics(t, "PopHead empty", func() { l.PopHead() })
	assertPanics(t, "PeekHead empty", func() { l.PeekHead() })
	assertPanics(t, "negative id", func() { l.PushTail(-1) })
	l.PushTail(3)
	assertPanics(t, "duplicate add", func() { l.PushTail(3) })
}

// Property: an ActiveList behaves like a FIFO of unique ids — for any
// sequence of (add id, pop) operations, pops come out in insertion
// order and membership is consistent.
func TestActiveListFIFOProperty(t *testing.T) {
	prop := func(ops []uint8) bool {
		var l ActiveList
		var model []int
		for _, op := range ops {
			id := int(op % 32)
			if op%3 == 0 && len(model) > 0 {
				got := l.PopHead()
				if got != model[0] {
					return false
				}
				model = model[1:]
			} else if !l.Contains(id) {
				l.PushTail(id)
				model = append(model, id)
			}
			if l.Len() != len(model) {
				return false
			}
		}
		// Drain and compare.
		for _, w := range model {
			if l.PopHead() != w {
				return false
			}
		}
		return l.Empty()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: PacketQueue preserves FIFO order and flit accounting for
// arbitrary push/pop interleavings.
func TestPacketQueueProperty(t *testing.T) {
	prop := func(ops []uint8) bool {
		var q PacketQueue
		var model []flit.Packet
		var backlog int64
		nextID := int64(0)
		for _, op := range ops {
			if op%4 == 0 && len(model) > 0 {
				got := q.Pop()
				want := model[0]
				model = model[1:]
				backlog -= int64(want.Length)
				if got.ID != want.ID {
					return false
				}
			} else {
				p := flit.Packet{ID: nextID, Length: int(op%7) + 1}
				nextID++
				q.Push(p)
				model = append(model, p)
				backlog += int64(p.Length)
			}
			if q.Len() != len(model) || q.FlitBacklog() != backlog {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
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

// TestExtendZeroesReusedBackingArray: Extend hands out zero elements
// even when the backing array already holds data beyond len.
func TestExtendZeroesReusedBackingArray(t *testing.T) {
	s := []int64{1, 2, 3, 4}[:1]
	Extend(&s, 3)
	if len(s) != 3 || s[0] != 1 || s[1] != 0 || s[2] != 0 {
		t.Fatalf("Extend = %v, want [1 0 0]", s)
	}
	Extend(&s, 2)
	if len(s) != 3 {
		t.Fatalf("Extend shrank the slice to %d", len(s))
	}
}

// TestActiveListCapacitySlackAbsent: ids in the membership table's
// capacity slack [len, cap) are not members, before and after the
// table is reallocated.
func TestActiveListCapacitySlackAbsent(t *testing.T) {
	var l ActiveList
	for id := 0; id < 1000; id++ {
		l.PushTail(id)
	}
	for l.Len() > 1 {
		l.PopHead()
	}
	for round := 0; round < 2; round++ {
		if len(l.member) == cap(l.member) {
			t.Fatalf("no capacity slack to probe (len = cap = %d)", cap(l.member))
		}
		for id := len(l.member); id < cap(l.member); id++ {
			if l.Contains(id) {
				t.Fatalf("Contains(%d) in capacity slack [%d, %d)", id, len(l.member), cap(l.member))
			}
		}
		// Push past the capacity so the table is reallocated.
		old := cap(l.member)
		l.PushTail(old)
		if cap(l.member) == old || !l.Contains(old) || l.Contains(old-1) {
			t.Fatalf("PushTail(%d) past capacity %d: cap %d, Contains = %v",
				old, old, cap(l.member), l.Contains(old))
		}
	}
	if got := l.Snapshot(); len(got) != 3 || got[0] != 999 {
		t.Fatalf("Snapshot after growth = %v", got)
	}
}
