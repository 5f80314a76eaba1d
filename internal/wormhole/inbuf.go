package wormhole

import (
	"repro/internal/damq"
	"repro/internal/flit"
)

// portBuf is the input buffering of one router port: either statically
// partitioned per-VC FIFOs (the default) or a dynamically allocated
// multi-queue shared buffer (DAMQ, Tamir & Frazier) — the paper's
// "a single buffer can implement multiple logical queues". The
// notified flag (head packet announced to its arbiter) lives here so
// both modes share the announcement protocol. occVC mirrors per-VC
// non-emptiness as a bitmask (bit v set <=> VC v holds flits), so the
// forwarding hot loop answers "is this input empty?" with one word
// load instead of a FIFO pointer chase.
type portBuf struct {
	fifos []vcFIFO     // per-VC FIFOs; buf nil in shared mode (arr/notif still used)
	dyn   *damq.Buffer // shared mode
	occVC uint64
}

func initPortBuf(pb *portBuf, a *Arena, vcs, bufFlits, sharedFlits, cap int) {
	pb.fifos = a.fifos.take(vcs)
	if sharedFlits > 0 {
		pb.dyn = damq.New(sharedFlits, vcs, bufFlits)
		if cap > 0 {
			pb.dyn.SetCap(cap)
		}
		return
	}
	for v := range pb.fifos {
		pb.fifos[v].buf = a.entries.take(bufFlits)
	}
}

func (p *portBuf) empty(vc int) bool { return p.occVC&(1<<uint(vc)) == 0 }

func (p *portBuf) len(vc int) int {
	if p.dyn != nil {
		return p.dyn.Len(vc)
	}
	return p.fifos[vc].len()
}

func (p *portBuf) canAccept(vc int) bool {
	if p.dyn != nil {
		return p.dyn.CanAccept(vc)
	}
	return !p.fifos[vc].full()
}

func (p *portBuf) push(vc int, f flit.Flit, arrived int64) {
	q := &p.fifos[vc]
	if p.occVC&(1<<uint(vc)) == 0 {
		q.arr = arrived
	}
	if p.dyn != nil {
		if !p.dyn.Push(vc, f, arrived) {
			panic("wormhole: push to full DAMQ queue (flow control violated)")
		}
	} else {
		// Write the slot in place: a second copy of the entry is
		// measurable on the injection-heavy commit path.
		if q.size == len(q.buf) {
			panic("wormhole: push to full VC FIFO (credit protocol violated)")
		}
		i := q.head + q.size
		if i >= len(q.buf) {
			i -= len(q.buf)
		}
		q.buf[i] = packEntry(f, arrived)
		q.size++
	}
	p.occVC |= 1 << uint(vc)
}

// popFlit dequeues the head flit of VC vc, discarding its arrival
// stamp (the forwarding path already consulted peekArrived).
func (p *portBuf) popFlit(vc int) flit.Flit {
	q := &p.fifos[vc]
	if p.dyn != nil {
		f, _ := p.dyn.Pop(vc)
		if p.dyn.Empty(vc) {
			p.occVC &^= 1 << uint(vc)
		} else {
			_, m := p.dyn.Peek(vc)
			q.arr = m
		}
		return f
	}
	if q.size == 0 {
		panic("wormhole: pop from empty VC FIFO")
	}
	f := q.buf[q.head].flit()
	q.head++
	if q.head == len(q.buf) {
		q.head = 0
	}
	q.size--
	if q.size == 0 {
		p.occVC &^= 1 << uint(vc)
	} else {
		q.arr = q.buf[q.head].arrived
	}
	return f
}

// peek returns the head flit of VC vc (which must be non-empty).
func (p *portBuf) peek(vc int) flit.Flit {
	if p.dyn != nil {
		f, _ := p.dyn.Peek(vc)
		return f
	}
	q := &p.fifos[vc]
	if q.size == 0 {
		panic("wormhole: peek on empty VC FIFO")
	}
	return q.buf[q.head].flit()
}

// peekArrived returns the arrival cycle of the head flit (valid only
// while the VC is non-empty — callers gate on occVC). The forwarding
// hot loop consults it for every allocated VC every cycle.
func (p *portBuf) peekArrived(vc int) int64 { return p.fifos[vc].arr }
