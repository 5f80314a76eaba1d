// Package core implements the paper's contribution: the Elastic
// Round Robin (ERR) packet scheduler of Kanhere, Parekh & Sethu
// (IPDPS 2000), a transcription of the pseudo-code in the paper's
// Figure 1, plus the weighted extension from the authors' follow-up
// work and the tracing hooks used to regenerate Figure 3.
//
// ERR serves active flows in round-robin order. In round r flow i is
// given the elastic allowance
//
//	A_i(r) = w_i*(1 + MaxSC(r-1)) - SC_i(r-1)        (w_i = 1 in the paper)
//
// and keeps starting new packets while the flits it has sent this
// round remain below the allowance. The last packet may overshoot —
// the allowance is elastic — and the overshoot is remembered in the
// flow's surplus count SC_i(r) = Sent_i(r) - A_i(r), which shrinks
// the flow's allowance next round. MaxSC(r) is the largest surplus
// count observed in round r; adding 1 to the next round's allowance
// guarantees even the worst overshooter may send at least one packet.
//
// Crucially, every decision ("keep serving this flow?") depends only
// on service *already rendered*, never on the length of the packet
// about to be dequeued — which is why ERR works in wormhole switches
// where dequeue time is governed by downstream congestion. For the
// same reason ERR does not implement sched.LengthAware, and the
// compiler enforces that it never sees a length before dequeuing.
//
// All operations are O(1) in the number of flows (the paper's
// Theorem 1): the ActiveList is a ring of flow ids plus a membership
// table, all counters are per-flow scalars, and the per-flow tables
// grow with amortized O(1) cost when a new flow id first appears.
package core

import (
	"repro/internal/queue"
	"repro/internal/sched"
)

// TraceSink receives round-by-round events from an ERR scheduler.
// Used by cmd/errtrace to regenerate the content of the paper's
// Figure 3 and by the golden tests. A nil sink disables tracing.
type TraceSink interface {
	// RoundStart fires when a new round begins: its 1-based index,
	// the MaxSC of the previous round (PreviousMaxSC), and the number
	// of flows that will be visited (RoundRobinVisitCount).
	RoundStart(round int64, prevMaxSC int64, visits int)
	// Opportunity fires when a flow's service opportunity ends, with
	// the allowance it was given, the flits (or occupancy cycles) it
	// sent, its resulting surplus count, and whether it left the
	// active list because its queue drained.
	Opportunity(round int64, flow int, allowance, sent, surplus int64, left bool)
}

// ERR is the Elastic Round Robin scheduler. Create one with New or
// NewWeighted. ERR implements sched.Scheduler and is driven by an
// engine exactly like every baseline discipline.
type ERR struct {
	weight func(flow int) int64

	active queue.ActiveList
	// sc holds the per-flow surplus counts, indexed by flow id and
	// grown on demand (flow ids are dense small integers; a slice
	// keeps the hot path allocation-free).
	sc []int64

	round     int64 // 1-based index of the round in progress
	rrvc      int   // RoundRobinVisitCount
	maxSC     int64 // MaxSC of the round in progress
	prevMaxSC int64 // MaxSC of the completed round

	current   int   // flow in service, or -1
	allowance int64 // A_i of the current opportunity
	sent      int64 // Sent_i so far in the current opportunity

	// keepSurplusOnDrain is an ablation switch: when set, a flow that
	// drains keeps its surplus count instead of resetting it to zero
	// as Figure 1 specifies, so old bursts punish a flow after idle
	// periods. Used only by the ablation benchmarks.
	keepSurplusOnDrain bool

	trace TraceSink
}

// New returns an unweighted ERR scheduler — the exact algorithm of
// the paper's Figure 1.
func New() *ERR { return NewWeighted(nil) }

// NewWeighted returns a weighted ERR scheduler with per-flow integer
// weights >= 1: flow i's allowance becomes w_i*(1 + MaxSC(r-1)) -
// SC_i(r-1), yielding throughput proportional to the weights. A nil
// weight function means weight 1 for every flow, i.e. the paper's
// unweighted algorithm.
func NewWeighted(weight func(flow int) int64) *ERR {
	if weight == nil {
		weight = func(int) int64 { return 1 }
	}
	return &ERR{
		weight:  weight,
		current: -1,
	}
}

// scRef returns a pointer to flow's surplus count, growing the table
// as needed.
func (e *ERR) scRef(flow int) *int64 {
	queue.Extend(&e.sc, flow+1)
	return &e.sc[flow]
}

// SetTrace installs a trace sink (nil disables tracing).
func (e *ERR) SetTrace(t TraceSink) { e.trace = t }

// SetKeepSurplusOnDrain enables the ablation variant that does not
// reset a drained flow's surplus count (Figure 1 resets it). Only for
// the ablation experiments; the default false is the paper's
// algorithm.
func (e *ERR) SetKeepSurplusOnDrain(keep bool) { e.keepSurplusOnDrain = keep }

// Name implements sched.Scheduler.
func (e *ERR) Name() string { return "ERR" }

// OnArrival implements sched.Scheduler — the Enqueue routine of
// Figure 1. A flow in the middle of its service opportunity counts as
// active even though it is temporarily off the list.
func (e *ERR) OnArrival(flow int, wasEmpty bool) {
	if flow == e.current || e.active.Contains(flow) {
		return
	}
	e.active.PushTail(flow)
	if !e.keepSurplusOnDrain {
		*e.scRef(flow) = 0
	}
}

// NextFlow implements sched.Scheduler — the head of the Dequeue loop
// of Figure 1.
func (e *ERR) NextFlow() int {
	if e.current != -1 {
		// Continue the opportunity in progress: the do-while of
		// Figure 1 keeps transmitting while Sent < Allowance.
		return e.current
	}
	if e.rrvc == 0 {
		// A round has completed (or the scheduler is fresh/idle):
		// snapshot MaxSC and count the flows to visit this round.
		e.prevMaxSC = e.maxSC
		e.maxSC = 0
		e.rrvc = e.active.Len()
		e.round++
		if e.trace != nil {
			e.trace.RoundStart(e.round, e.prevMaxSC, e.rrvc)
		}
	}
	flow := e.active.PopHead()
	w := e.weight(flow)
	if w < 1 {
		panic("core: ERR weight < 1")
	}
	e.current = flow
	e.allowance = w*(1+e.prevMaxSC) - *e.scRef(flow)
	e.sent = 0
	return flow
}

// OnPacketDone implements sched.Scheduler — the body and tail of the
// Dequeue loop. cost is the packet's length in flits, or its output-
// occupancy in cycles when the engine runs in wormhole mode; ERR is
// agnostic, it simply bills whatever the server measured.
func (e *ERR) OnPacketDone(flow int, cost int64, nowEmpty bool) {
	if flow != e.current {
		panic("core: ERR completion for a flow not in service")
	}
	if cost < 1 {
		panic("core: ERR packet cost < 1")
	}
	e.sent += cost
	if e.sent < e.allowance && !nowEmpty {
		return // opportunity continues; next packet starts
	}
	// The opportunity ends: record the surplus and rotate the list.
	surplus := e.sent - e.allowance
	if surplus > e.maxSC {
		// Figure 1 updates MaxSC before the empty-queue check, so
		// even a flow that drains and leaves contributes its surplus.
		e.maxSC = surplus
	}
	if nowEmpty {
		if e.keepSurplusOnDrain {
			*e.scRef(flow) = surplus
		} else {
			*e.scRef(flow) = 0
		}
	} else {
		*e.scRef(flow) = surplus
		e.active.PushTail(flow)
	}
	if e.trace != nil {
		e.trace.Opportunity(e.round, flow, e.allowance, e.sent, surplus, nowEmpty)
	}
	e.current = -1
	e.rrvc--
	if e.active.Empty() {
		// System gone idle: re-initialise the round state so a flow
		// arriving after an idle period starts from a clean slate, as
		// Initialize in Figure 1 would have it.
		e.rrvc = 0
		e.maxSC = 0
		e.prevMaxSC = 0
		e.round = 0
	}
}

// --- accessors used by the invariant tests and the tracer ---

// SurplusCount returns SC of the given flow.
func (e *ERR) SurplusCount(flow int) int64 {
	if flow >= len(e.sc) {
		return 0
	}
	return e.sc[flow]
}

// MaxSC returns the largest surplus count observed so far in the
// round in progress.
func (e *ERR) MaxSC() int64 { return e.maxSC }

// PrevMaxSC returns MaxSC of the completed round.
func (e *ERR) PrevMaxSC() int64 { return e.prevMaxSC }

// Round returns the 1-based index of the round in progress (0 when
// idle).
func (e *ERR) Round() int64 { return e.round }

// VisitsLeft returns the RoundRobinVisitCount.
func (e *ERR) VisitsLeft() int { return e.rrvc }

// CurrentFlow returns the flow in service, or -1.
func (e *ERR) CurrentFlow() int { return e.current }

// ActiveFlows returns the number of flows on the active list (the
// flow currently in service, if any, is not on the list).
func (e *ERR) ActiveFlows() int { return e.active.Len() }

// IsActive reports whether the scheduler considers flow active: on
// the ActiveList, or temporarily off it while in service. The
// runtime invariant checker uses this to audit ActiveList membership
// against queue backlog every cycle.
func (e *ERR) IsActive(flow int) bool {
	return flow == e.current || e.active.Contains(flow)
}

// HeadOfLineSafe implements sched.HeadOfLineArb: ERR reschedules a
// flow itself when OnPacketDone reports remaining backlog, and never
// needs packet lengths in advance, so it can arbitrate a wormhole
// router output.
func (e *ERR) HeadOfLineSafe() {}

var (
	_ sched.Scheduler     = (*ERR)(nil)
	_ sched.HeadOfLineArb = (*ERR)(nil)
)
