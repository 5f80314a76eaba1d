// Package queue provides the O(1) data structures used by the
// round-robin schedulers and the wormhole substrates: per-flow FIFOs
// sharing one slab, a growable ring buffer of packets, a flit FIFO,
// and the ActiveList of flow ids that the ERR and DRR disciplines
// cycle over.
package queue

import "repro/internal/flit"

// PacketQueue is a FIFO of packets backed by a growable ring buffer.
// The zero value is an empty queue ready to use. All operations are
// amortised O(1). It serves one queue per NoC source; per-flow queues
// over many flows use FlowFIFOs, whose idle flows hold no ring.
type PacketQueue struct {
	buf        []flit.Packet
	head, size int
	// flits tracks the total number of flits currently queued, so
	// backlog in flits is available without iteration.
	flits int64
}

// Len returns the number of queued packets.
func (q *PacketQueue) Len() int { return q.size }

// Cap returns the capacity of the backing ring. It grows with bursts
// and shrinks again as they drain (see Pop), so a queue's live heap is
// proportional to its recent occupancy, not its all-time high-water
// mark.
func (q *PacketQueue) Cap() int { return len(q.buf) }

// Empty reports whether the queue holds no packets.
func (q *PacketQueue) Empty() bool { return q.size == 0 }

// FlitBacklog returns the total number of flits across all queued
// packets.
func (q *PacketQueue) FlitBacklog() int64 { return q.flits }

// Push appends a packet to the tail of the queue.
func (q *PacketQueue) Push(p flit.Packet) {
	if q.size == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.size)%len(q.buf)] = p
	q.size++
	q.flits += int64(p.Length)
}

// shrinkCap is the smallest ring a queue shrinks to; below this the
// saving is not worth the copy.
const shrinkCap = 64

// Pop removes and returns the packet at the head of the queue.
// It panics if the queue is empty.
func (q *PacketQueue) Pop() flit.Packet {
	if q.size == 0 {
		panic("queue: Pop from empty PacketQueue")
	}
	p := q.buf[q.head]
	q.buf[q.head] = flit.Packet{} // release for GC hygiene
	q.head = (q.head + 1) % len(q.buf)
	q.size--
	q.flits -= int64(p.Length)
	// Shrink the ring once occupancy falls to a quarter of it, so a
	// burst's backing array does not stay live for the rest of the
	// run. Halving at <= 1/4 occupancy keeps the move amortised O(1)
	// and leaves slack against grow/shrink thrash at the boundary.
	if n := len(q.buf); n > shrinkCap && q.size <= n/4 {
		q.resize(n / 2)
	}
	return p
}

// Peek returns the packet at the head of the queue without removing
// it. It panics if the queue is empty.
func (q *PacketQueue) Peek() flit.Packet {
	if q.size == 0 {
		panic("queue: Peek on empty PacketQueue")
	}
	return q.buf[q.head]
}

func (q *PacketQueue) grow() {
	n := len(q.buf) * 2
	if n == 0 {
		n = 8
	}
	q.resize(n)
}

func (q *PacketQueue) resize(n int) {
	nb := make([]flit.Packet, n)
	for i := 0; i < q.size; i++ {
		nb[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	q.buf = nb
	q.head = 0
}
