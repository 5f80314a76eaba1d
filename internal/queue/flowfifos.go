package queue

import (
	"fmt"
	"math"
)

// FlowFIFOs is a set of per-flow FIFOs of T that share one slab of
// linked slots. A flow costs a 12-byte header whether or not it ever
// queues anything; a queued value costs one slot, and a popped value
// returns its slot to a free list that the next Push to any flow
// reuses. The memory held is therefore proportional to the flow count
// plus the peak number of values queued across all flows at once, not,
// as with one ring per flow, to the sum of every flow's own peak.
//
// Slot indexes are int32 and slot 0 is never used, so index 0 means
// "none". A zeroed header is an empty flow: a zeroed header table is
// valid and the zero value is an empty set. Flows past the end of the
// table read as empty, and a Push to one grows the table through
// Extend. All operations are amortised O(1); once the slab covers the
// working set, Push and Pop allocate nothing.
type FlowFIFOs[T any] struct {
	flows []fifoHeader
	slots []fifoSlot[T] // slots[0] is the unused "none" index
	free  int32         // head of the free-slot list, 0 when empty
}

// fifoHeader is one flow's FIFO: the slab indexes of its head and
// tail slots, meaningful only while len > 0, and its length.
type fifoHeader struct {
	head, tail, len int32
}

type fifoSlot[T any] struct {
	v    T
	next int32
}

// NewFlowFIFOs returns a set whose header table already covers flow
// ids 0..flows-1, in one zeroed allocation.
func NewFlowFIFOs[T any](flows int) FlowFIFOs[T] {
	return FlowFIFOs[T]{flows: make([]fifoHeader, flows)}
}

// Len returns the number of values queued for flow.
func (q *FlowFIFOs[T]) Len(flow int) int {
	if uint(flow) >= uint(len(q.flows)) {
		return 0
	}
	return int(q.flows[flow].len)
}

// Empty reports whether flow has no queued values.
func (q *FlowFIFOs[T]) Empty(flow int) bool { return q.Len(flow) == 0 }

// maxSlots bounds the slab so that every slot index fits in an int32;
// tests lower it to reach the limit.
var maxSlots = math.MaxInt32

// Push appends v to the tail of flow's FIFO. It panics on a negative
// flow id, and when the slab already holds maxSlots slots and none is
// free.
func (q *FlowFIFOs[T]) Push(flow int, v T) {
	if flow < 0 {
		panic(fmt.Sprintf("queue: negative flow id %d", flow))
	}
	Extend(&q.flows, flow+1)
	s := q.alloc()
	q.slots[s].v = v
	h := &q.flows[flow]
	if h.len == 0 {
		h.head = s
	} else {
		q.slots[h.tail].next = s
	}
	h.tail = s
	h.len++
}

// Pop removes and returns the value at the head of flow's FIFO and
// returns its slot to the free list. It panics if the flow is empty.
func (q *FlowFIFOs[T]) Pop(flow int) T {
	if q.Empty(flow) {
		panic(fmt.Sprintf("queue: Pop from empty flow %d of FlowFIFOs", flow))
	}
	h := &q.flows[flow]
	s := h.head
	sl := &q.slots[s]
	v := sl.v
	h.head = sl.next
	h.len--
	var zero T
	sl.v = zero // release for GC hygiene
	sl.next = q.free
	q.free = s
	return v
}

// Peek returns the value at the head of flow's FIFO without removing
// it. It panics if the flow is empty.
func (q *FlowFIFOs[T]) Peek(flow int) T {
	if q.Empty(flow) {
		panic(fmt.Sprintf("queue: Peek on empty flow %d of FlowFIFOs", flow))
	}
	return q.slots[q.flows[flow].head].v
}

// alloc takes a slot off the free list, or appends one to the slab.
// The slot's next is stale until a later Push links past it; a tail's
// next is never read.
func (q *FlowFIFOs[T]) alloc() int32 {
	if s := q.free; s != 0 {
		q.free = q.slots[s].next
		return s
	}
	if len(q.slots) == 0 {
		q.slots = append(q.slots, fifoSlot[T]{}) // the "none" sentinel
	}
	if len(q.slots) >= maxSlots {
		panic(fmt.Sprintf("queue: FlowFIFOs slab is full: %d slots is the int32 index limit", len(q.slots)))
	}
	q.slots = append(q.slots, fifoSlot[T]{})
	return int32(len(q.slots) - 1)
}
