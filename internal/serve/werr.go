// Package serve puts the paper's scheduler in front of real traffic:
// an overload-safe fair-queuing HTTP front end. Requests are
// classified into per-tenant flows, held in bounded per-flow queues,
// and dispatched through a wall-clock adaptation of Elastic Round
// Robin by a concurrency-limited worker pool. ERR's defining property
// — every decision depends only on service already rendered, never on
// the cost of the work about to be started — is exactly what a
// request front end needs, because a request's cost is unknown until
// its handler returns.
//
// Robustness is the package's headline: load shedding with per-tenant
// 429s when a flow's queue or the global memory budget fills (the
// heaviest tenant sheds first, never the mice), per-request deadlines
// that evict expired waiters before dispatch, graceful degradation
// tiers driven by occupancy watermarks with hysteresis, and clean
// draining on SIGTERM.
package serve

import (
	"repro/internal/queue"
	"repro/internal/sched"
)

// WallERR is the wall-clock, completion-billed adaptation of Elastic
// Round Robin (core.ERR) for concurrent servers, implementing
// sched.AsyncScheduler.
//
// The round/allowance/surplus machinery is the paper's Figure 1: in
// round r flow i receives the elastic allowance
//
//	A_i(r) = w_i*(1 + MaxSC(r-1)) - SC_i(r-1)
//
// and keeps dispatching requests while the cost billed to the current
// opportunity stays below the allowance; the overshoot becomes the
// flow's surplus count. Three adaptations for live, concurrent
// service:
//
//  1. Provisional billing. A dispatched request's cost is unknown, so
//     it is billed the 1-unit minimum at dispatch; the excess
//     (measured cost - 1) is billed when the handler returns — to the
//     opportunity if it is still open, else directly to the flow's
//     surplus count. This is what "service time billed to the flow's
//     surplus count on completion" means: an elephant whose slow
//     requests complete after its turn ended still pays for them out
//     of its next allowances.
//  2. Debt persistence. Figure 1 resets a drained flow's surplus
//     count; here surplus (debt) survives drain, because with
//     deferred billing a tenant could otherwise erase the cost of an
//     expensive in-flight request by simply letting its queue drain
//     before the completion lands. DebtCap bounds how much debt a
//     single flow can accumulate so one stuck handler cannot starve a
//     tenant forever.
//  3. Repayment visits. Deferred billing can push a flow's surplus
//     above the round allowance, making A_i <= 0. Such a flow
//     dispatches nothing at its visit and its debt shrinks by the
//     full grant w_i*(1+MaxSC(r-1)); because MaxSC tracks the largest
//     outstanding debt, the next round's allowance is positive again
//     — ERR's elasticity self-heals in one round, preserving the
//     paper's everyone-sends-something liveness.
//
// WallERR is not safe for concurrent use; the dispatcher serializes
// all calls under the server lock (one arbiter per server, as the
// hardware has one arbiter per output port).
type WallERR struct {
	weight  func(flow int) int64
	debtCap int64

	active queue.ActiveList
	sc     []int64

	round     int64
	rrvc      int // RoundRobinVisitCount
	maxSC     int64
	prevMaxSC int64

	// Open service opportunity, if any.
	current   int   // flow in service, or -1
	curOpp    int64 // token of the open opportunity
	allowance int64
	billed    int64 // cost billed to the open opportunity so far
	scAtOpen  int64 // flow's surplus when the opportunity opened
	curEmpty  bool  // flow's queue is empty (nothing left to dispatch)

	oppSeq   int64 // opportunity token generator
	inflight int   // dispatched requests not yet completed, all flows
}

// NewWallERR returns a wall-clock weighted ERR scheduler. A nil
// weight function means weight 1 for every flow. debtCap bounds a
// flow's deferred surplus count (0 = unbounded); a few multiples of
// the largest plausible single-request cost is a good choice.
func NewWallERR(weight func(flow int) int64, debtCap int64) *WallERR {
	if weight == nil {
		weight = func(int) int64 { return 1 }
	}
	return &WallERR{weight: weight, debtCap: debtCap, current: -1}
}

// Name implements sched.AsyncScheduler.
func (e *WallERR) Name() string { return "WallERR" }

func (e *WallERR) scRef(flow int) *int64 {
	queue.Extend(&e.sc, flow+1)
	return &e.sc[flow]
}

// OnArrival implements sched.AsyncScheduler. Unlike Figure 1 the
// surplus count is NOT reset when a drained flow re-activates — see
// the debt-persistence note on the type.
func (e *WallERR) OnArrival(flow int, wasEmpty bool) {
	if flow == e.current {
		e.curEmpty = false
		return
	}
	if e.active.Contains(flow) {
		return
	}
	e.active.PushTail(flow)
}

// NextFlow implements sched.AsyncScheduler: it returns the flow whose
// head request should be dispatched next, or -1 when no flow has a
// dispatchable request. Closing opportunities and opening new ones
// (including zero-dispatch repayment visits) happens here.
func (e *WallERR) NextFlow() int {
	for {
		if e.current != -1 {
			if !e.curEmpty && e.billed < e.allowance {
				return e.current // the do-while of Figure 1
			}
			e.closeOpportunity()
		}
		if e.active.Empty() {
			if e.inflight == 0 {
				// Fully idle: re-initialise round state as Figure 1's
				// Initialize would. Debts persist (see type comment).
				e.rrvc, e.maxSC, e.prevMaxSC, e.round = 0, 0, 0, 0
			}
			return -1
		}
		if e.rrvc <= 0 {
			e.prevMaxSC = e.maxSC
			e.maxSC = 0
			e.rrvc = e.active.Len()
			e.round++
		}
		flow := e.active.PopHead()
		w := e.weight(flow)
		if w < 1 {
			panic("serve: WallERR weight < 1")
		}
		e.oppSeq++
		e.current = flow
		e.curOpp = e.oppSeq
		e.scAtOpen = *e.scRef(flow)
		e.allowance = w*(1+e.prevMaxSC) - e.scAtOpen
		e.billed = 0
		e.curEmpty = false
		if e.allowance <= 0 {
			// Repayment visit: the flow owes more than this round
			// grants; it dispatches nothing and its debt shrinks by
			// the full grant in closeOpportunity.
			e.closeOpportunity()
			continue
		}
		return flow
	}
}

// closeOpportunity ends the open service opportunity, folding the
// billed overshoot and any cost deferred since the opportunity opened
// into the flow's surplus count, and rotating the flow to the tail of
// the active list when it still has queued requests.
func (e *WallERR) closeOpportunity() {
	flow := e.current
	surplus := e.billed - e.allowance
	if surplus < 0 {
		// The flow drained (or is being revisited for repayment with
		// billed == 0): unused allowance is not banked — round-robin
		// schedulers carry debt, never credit.
		if e.curEmpty {
			surplus = 0
		}
		// For a repayment visit (allowance <= 0, billed == 0) surplus
		// is -allowance >= 0, so this branch is drain-only.
	}
	scp := e.scRef(flow)
	deferred := *scp - e.scAtOpen // completions billed past-close since open
	ns := surplus + deferred
	if ns < 0 {
		ns = 0
	}
	if e.debtCap > 0 && ns > e.debtCap {
		ns = e.debtCap
	}
	*scp = ns
	if ns > e.maxSC {
		// Figure 1's MaxSC update, generalized: tracking the largest
		// outstanding debt guarantees next round's allowances stay
		// positive for everyone (w*(1+MaxSC) - SC >= w when SC <= MaxSC).
		e.maxSC = ns
	}
	if !e.curEmpty {
		e.active.PushTail(flow)
	}
	e.current = -1
	e.rrvc--
}

// OnDispatch implements sched.AsyncScheduler: one request from the
// flow returned by NextFlow entered service. The request is billed
// the 1-unit provisional minimum now; OnServiceDone bills the rest.
func (e *WallERR) OnDispatch(flow int, nowEmpty bool) int64 {
	if flow != e.current {
		panic("serve: WallERR dispatch for a flow not in service")
	}
	e.billed++
	e.inflight++
	e.curEmpty = nowEmpty
	return e.curOpp
}

// OnEvicted implements sched.AsyncScheduler: flow's queue lost
// requests without service. Only the in-service flow needs immediate
// bookkeeping (its opportunity must not keep polling an empty queue);
// an evicted-empty flow elsewhere on the active list simply drains at
// its next visit.
func (e *WallERR) OnEvicted(flow int, nowEmpty bool) {
	if flow == e.current {
		e.curEmpty = nowEmpty
	}
}

// OnServiceDone implements sched.AsyncScheduler: a request dispatched
// under token completed at the measured cost. The excess over the
// provisional unit goes to the opportunity if it is still the open
// one, else straight to the flow's surplus count (deferred billing).
func (e *WallERR) OnServiceDone(flow int, token int64, cost int64) {
	if cost < 1 {
		cost = 1
	}
	e.inflight--
	if e.inflight < 0 {
		panic("serve: WallERR completion without dispatch")
	}
	excess := cost - 1
	if excess == 0 {
		return
	}
	if flow == e.current && token == e.curOpp {
		e.billed += excess
		return
	}
	scp := e.scRef(flow)
	ns := *scp + excess
	if e.debtCap > 0 && ns > e.debtCap {
		ns = e.debtCap
	}
	*scp = ns
	if ns > e.maxSC {
		e.maxSC = ns
	}
}

// --- accessors for tests, metrics and invariant checks ---

// SurplusCount returns the flow's current surplus count (debt).
func (e *WallERR) SurplusCount(flow int) int64 {
	if flow >= len(e.sc) {
		return 0
	}
	return e.sc[flow]
}

// Round returns the 1-based index of the round in progress (0 idle).
func (e *WallERR) Round() int64 { return e.round }

// Inflight returns the number of dispatched, uncompleted requests.
func (e *WallERR) Inflight() int { return e.inflight }

// CurrentFlow returns the flow with the open opportunity, or -1.
func (e *WallERR) CurrentFlow() int { return e.current }

// IsActive reports whether the scheduler considers flow active.
func (e *WallERR) IsActive(flow int) bool {
	return flow == e.current || e.active.Contains(flow)
}

var _ sched.AsyncScheduler = (*WallERR)(nil)
