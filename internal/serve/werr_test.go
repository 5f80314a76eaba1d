package serve

import (
	"testing"
)

// wharness drives a WallERR the way the dispatcher does, with the
// test script standing in for workers: it tracks per-flow queue
// lengths and lets tests choose exactly when each completion lands.
type wharness struct {
	t    *testing.T
	e    *WallERR
	qlen []int
}

func newWH(t *testing.T, flows int, weight func(int) int64, debtCap int64) *wharness {
	t.Helper()
	return &wharness{t: t, e: NewWallERR(weight, debtCap), qlen: make([]int, flows)}
}

func (h *wharness) arrive(flow, n int) {
	for i := 0; i < n; i++ {
		h.e.OnArrival(flow, h.qlen[flow] == 0)
		h.qlen[flow]++
	}
}

// dispatch asks for the next flow and dispatches its head request,
// returning the flow and the opportunity token. Like the real
// dispatcher, a returned flow whose queue emptied by eviction is
// reported back with OnEvicted and the ask is retried. Fails the test
// when the scheduler has nothing to dispatch.
func (h *wharness) dispatch() (int, int64) {
	h.t.Helper()
	for {
		f := h.e.NextFlow()
		if f == -1 {
			h.t.Fatalf("NextFlow() = -1 with queues %v", h.qlen)
		}
		if h.qlen[f] == 0 {
			h.e.OnEvicted(f, true)
			continue
		}
		h.qlen[f]--
		return f, h.e.OnDispatch(f, h.qlen[f] == 0)
	}
}

func (h *wharness) done(flow int, token, cost int64) {
	h.e.OnServiceDone(flow, token, cost)
}

// dispatchDone dispatches and immediately completes at unit cost.
func (h *wharness) dispatchDone(cost int64) int {
	h.t.Helper()
	f, tok := h.dispatch()
	h.done(f, tok, cost)
	return f
}

// TestWallERRRoundRobinUnitCosts: equal weights and unit costs reduce
// WallERR to plain round robin.
func TestWallERRRoundRobinUnitCosts(t *testing.T) {
	h := newWH(t, 3, nil, 0)
	h.arrive(0, 4)
	h.arrive(1, 4)
	h.arrive(2, 4)
	var order []int
	for i := 0; i < 12; i++ {
		order = append(order, h.dispatchDone(1))
	}
	want := []int{0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("dispatch order %v, want %v", order, want)
		}
	}
	if f := h.e.NextFlow(); f != -1 {
		t.Fatalf("NextFlow() with drained queues = %d, want -1", f)
	}
	if h.e.Round() != 0 {
		t.Fatalf("Round() after idle reset = %d, want 0", h.e.Round())
	}
}

// TestWallERRWeightedShares: with unit costs a weight-w flow gets w
// dispatches per round.
func TestWallERRWeightedShares(t *testing.T) {
	weight := func(flow int) int64 {
		if flow == 0 {
			return 3
		}
		return 1
	}
	h := newWH(t, 2, weight, 0)
	h.arrive(0, 9)
	h.arrive(1, 3)
	counts := map[int]int{}
	for i := 0; i < 12; i++ {
		counts[h.dispatchDone(1)]++
	}
	if counts[0] != 9 || counts[1] != 3 {
		t.Fatalf("weighted dispatch counts %v, want 9/3", counts)
	}
}

// TestWallERRDeferredBillingEqualizesService: an expensive request
// whose completion lands after its opportunity closed is billed to
// the flow's surplus count, shrinking its next allowance so that
// total service still evens out.
func TestWallERRDeferredBillingEqualizesService(t *testing.T) {
	h := newWH(t, 2, nil, 0)
	h.arrive(0, 20)
	h.arrive(1, 20)

	// Round 1: flow 0's completion is held; flow 1 completes at unit.
	f, tok0 := h.dispatch()
	if f != 0 {
		t.Fatalf("first dispatch from flow %d, want 0", f)
	}
	if f := h.dispatchDone(1); f != 1 {
		t.Fatalf("second dispatch from flow %d, want 1", f)
	}
	// The held completion lands late, costing 11 units: the excess 10
	// is deferred straight to flow 0's surplus count.
	h.done(0, tok0, 11)
	if sc := h.e.SurplusCount(0); sc != 10 {
		t.Fatalf("SurplusCount(0) after deferred billing = %d, want 10", sc)
	}

	// Round 2: flow 0's allowance is 1*(1+10)-10 = 1, flow 1's is 11.
	counts := map[int]int{}
	for i := 0; i < 12; i++ {
		counts[h.dispatchDone(1)]++
	}
	if counts[0] != 1 || counts[1] != 11 {
		t.Fatalf("round-2 dispatch counts %v, want flow0=1 flow1=11", counts)
	}
	// Total service is equal: flow 0 billed 2 dispatches + 10 excess
	// = 12 units; flow 1 billed 12 unit dispatches.
	if sc := h.e.SurplusCount(0); sc != 0 {
		t.Fatalf("SurplusCount(0) after repayment round = %d, want 0", sc)
	}
}

// TestWallERRRepaymentVisit: when a deferred completion lands after a
// round started but before the flow's visit, the allowance can go
// non-positive; the flow then dispatches nothing at that visit and
// its debt shrinks by the full grant, so it serves again within a
// bounded number of rounds.
func TestWallERRRepaymentVisit(t *testing.T) {
	h := newWH(t, 3, nil, 0)
	h.arrive(0, 20)
	h.arrive(1, 20)
	h.arrive(2, 20)

	// Round 1: all three dispatch; flow 1's completion is held.
	if f := h.dispatchDone(1); f != 0 {
		t.Fatalf("dispatch 1 from flow %d, want 0", f)
	}
	f, tok1 := h.dispatch()
	if f != 1 {
		t.Fatalf("dispatch 2 from flow %d, want 1", f)
	}
	if f := h.dispatchDone(1); f != 2 {
		t.Fatalf("dispatch 3 from flow %d, want 2", f)
	}

	// Round 2 starts with flow 0; while its opportunity is open, flow
	// 1's held completion lands with cost 13 -> surplus count 12,
	// which exceeds its round-2 grant of 1*(1+prevMaxSC=0) = 1.
	if f := h.dispatchDone(1); f != 0 {
		t.Fatalf("round-2 dispatch from flow %d, want 0", f)
	}
	h.done(1, tok1, 13)
	if sc := h.e.SurplusCount(1); sc != 12 {
		t.Fatalf("SurplusCount(1) = %d, want 12", sc)
	}

	// Flow 1's round-2 visit is a repayment visit: NextFlow skips
	// straight to flow 2, and flow 1's debt shrank by the grant.
	if f := h.dispatchDone(1); f != 2 {
		t.Fatalf("dispatch after repayment visit from flow %d, want 2 (flow 1 skipped)", f)
	}
	if sc := h.e.SurplusCount(1); sc != 11 {
		t.Fatalf("SurplusCount(1) after repayment visit = %d, want 11", sc)
	}

	// Liveness: flow 1 dispatches again within a bounded number of
	// further dispatches. Flow 1's debt inflated MaxSC to 12, so round
	// 3 grants flows 0 and 2 an allowance of 13 each first; flow 1's
	// own allowance self-heals to 13-11 = 2. Bound: one full round.
	for i := 0; i < 40; i++ {
		if h.dispatchDone(1) == 1 {
			return
		}
	}
	t.Fatalf("flow 1 starved after repayment visit; surplus=%d round=%d",
		h.e.SurplusCount(1), h.e.Round())
}

// TestWallERRExcessBilledToOpenOpportunity: a completion landing while
// its opportunity is still open extends the billed amount, ending the
// opportunity early instead of adding debt.
func TestWallERRExcessBilledToOpenOpportunity(t *testing.T) {
	h := newWH(t, 2, func(int) int64 { return 5 }, 0)
	h.arrive(0, 10)
	h.arrive(1, 10)

	// Flow 0's allowance is 5; its first request completes in-turn at
	// cost 5, filling the whole opportunity.
	f, tok := h.dispatch()
	if f != 0 {
		t.Fatalf("dispatch from flow %d, want 0", f)
	}
	h.done(0, tok, 5)
	if f := h.dispatchDone(1); f != 1 {
		t.Fatalf("next dispatch from flow %d, want 1 (flow 0's opportunity exhausted)", f)
	}
	// In-turn billing leaves no deferred surplus beyond the overshoot:
	// billed 5 == allowance 5.
	if sc := h.e.SurplusCount(0); sc != 0 {
		t.Fatalf("SurplusCount(0) = %d, want 0", sc)
	}
}

// TestWallERRDebtCap: the deferred surplus count saturates at the cap.
func TestWallERRDebtCap(t *testing.T) {
	h := newWH(t, 2, nil, 7)
	h.arrive(0, 5)
	h.arrive(1, 5)
	f, tok := h.dispatch()
	if f != 0 {
		t.Fatalf("dispatch from flow %d, want 0", f)
	}
	h.dispatchDone(1) // flow 1, closes flow 0's opportunity path next round
	h.done(0, tok, 1000)
	if sc := h.e.SurplusCount(0); sc != 7 {
		t.Fatalf("SurplusCount(0) = %d, want debt cap 7", sc)
	}
}

// TestWallERRDebtPersistsAcrossDrain: unlike Figure 1, a drained
// flow's surplus count survives re-activation, so letting the queue
// empty does not launder deferred costs.
func TestWallERRDebtPersistsAcrossDrain(t *testing.T) {
	h := newWH(t, 2, nil, 0)
	h.arrive(0, 1)
	h.arrive(1, 1)
	f, tok := h.dispatch()
	if f != 0 {
		t.Fatalf("dispatch from flow %d, want 0", f)
	}
	h.dispatchDone(1)
	h.done(0, tok, 21) // flow 0 is drained; excess 20 lands as debt
	if f := h.e.NextFlow(); f != -1 {
		t.Fatalf("NextFlow() = %d, want -1 (both drained)", f)
	}
	if sc := h.e.SurplusCount(0); sc != 20 {
		t.Fatalf("SurplusCount(0) after drain = %d, want 20", sc)
	}
	// Re-activate both flows: flow 0 still owes its debt, so flow 1
	// gets the bulk of the next rounds until service evens out.
	h.arrive(0, 25)
	h.arrive(1, 25)
	counts := map[int]int{}
	for i := 0; i < 22; i++ {
		counts[h.dispatchDone(1)]++
	}
	if counts[0] >= counts[1] {
		t.Fatalf("indebted flow got %d of %d dispatches, want a minority share (counts %v)",
			counts[0], 22, counts)
	}
	if counts[0] == 0 {
		t.Fatalf("indebted flow fully starved over 22 dispatches (debt cap absent but elasticity should self-heal)")
	}
}

// TestWallERREvictedFlowSkipped: a flow whose queue empties by
// eviction drains from the rotation without service.
func TestWallERREvictedFlowSkipped(t *testing.T) {
	h := newWH(t, 2, nil, 0)
	h.arrive(0, 2)
	h.arrive(1, 2)
	if f := h.dispatchDone(1); f != 0 {
		t.Fatalf("dispatch from flow %d, want 0", f)
	}
	// Evict everything flow 1 had queued before its visit.
	h.qlen[1] = 0
	h.e.OnEvicted(1, true)
	// Flow 1 is mid-list with an empty queue; its visit must dispatch
	// nothing and the rotation must continue with flow 0.
	if f := h.dispatchDone(1); f != 0 {
		t.Fatalf("dispatch after eviction from flow %d, want 0", f)
	}
	if h.e.IsActive(1) && h.e.CurrentFlow() != 1 {
		// Flow 1 may linger on the active list until its visit; after
		// the dispatch above its visit has happened.
		t.Fatalf("evicted flow 1 still active after its visit")
	}
}

// TestWallERRInflightGuardsIdleReset: round state survives while
// completions are outstanding, so late costs still meet live state.
func TestWallERRInflightGuardsIdleReset(t *testing.T) {
	h := newWH(t, 1, nil, 0)
	h.arrive(0, 1)
	_, tok := h.dispatch()
	if f := h.e.NextFlow(); f != -1 {
		t.Fatalf("NextFlow() = %d, want -1 (queue drained, one in flight)", f)
	}
	if h.e.Inflight() != 1 {
		t.Fatalf("Inflight() = %d, want 1", h.e.Inflight())
	}
	h.done(0, tok, 4)
	if f := h.e.NextFlow(); f != -1 {
		t.Fatalf("NextFlow() = %d, want -1", f)
	}
	if h.e.Inflight() != 0 {
		t.Fatalf("Inflight() = %d, want 0", h.e.Inflight())
	}
	if sc := h.e.SurplusCount(0); sc != 3 {
		t.Fatalf("SurplusCount(0) = %d, want 3 (debt persists through idle)", sc)
	}
}

// growPastCapacity serves one unit-cost request of flows id, id+1,
// ... (each activated and drained alone) until e's surplus table has
// been reallocated, and returns the next unused id.
func growPastCapacity(t *testing.T, e *WallERR, id int) int {
	t.Helper()
	for old := cap(e.sc); cap(e.sc) == old; id++ {
		if id >= 1<<20 {
			t.Fatalf("surplus table never grew past capacity %d", old)
		}
		e.OnArrival(id, true)
		if f := e.NextFlow(); f != id {
			t.Fatalf("NextFlow = %d, want %d", f, id)
		}
		e.OnServiceDone(id, e.OnDispatch(id, true), 1)
		e.NextFlow() // closes the drained flow's opportunity
	}
	return id
}

// TestWallERRTableSlackReadsZero: flow ids in the surplus table's
// capacity slack [len, cap) carry no debt and are not active.
func TestWallERRTableSlackReadsZero(t *testing.T) {
	e := NewWallERR(nil, 0)
	for id := 0; id < 1000; {
		id = growPastCapacity(t, e, id)
	}
	if len(e.sc) == cap(e.sc) {
		t.Fatalf("no capacity slack to probe (len = cap = %d)", cap(e.sc))
	}
	for id := len(e.sc); id < cap(e.sc); id++ {
		if sc := e.SurplusCount(id); sc != 0 || e.IsActive(id) {
			t.Fatalf("flow %d in capacity slack [%d, %d): SurplusCount = %d, IsActive = %v",
				id, len(e.sc), cap(e.sc), sc, e.IsActive(id))
		}
	}
}

// TestWallERRDebtSurvivesTableGrowth: debt billed to a drained flow
// after its opportunity closed persists while its table is
// reallocated, and still shrinks its next allowance.
func TestWallERRDebtSurvivesTableGrowth(t *testing.T) {
	e := NewWallERR(nil, 0)
	e.OnArrival(0, true)
	e.NextFlow()
	tok := e.OnDispatch(0, true)
	if f := e.NextFlow(); f != -1 {
		t.Fatalf("NextFlow = %d, want -1 (flow 0 drained)", f)
	}
	e.OnServiceDone(0, tok, 21) // the opportunity is closed: debt 20
	for id := 1; id < 1000; {
		id = growPastCapacity(t, e, id)
		if sc := e.SurplusCount(0); sc != 20 {
			t.Fatalf("SurplusCount(0) after growth to capacity %d = %d, want 20", cap(e.sc), sc)
		}
	}
	// Idle again, so MaxSC is 0: flow 0 owes more than its grant of 1
	// and its visit is a repayment visit that dispatches nothing.
	e.OnArrival(0, true)
	if f := e.NextFlow(); f != 0 {
		t.Fatalf("NextFlow = %d, want 0", f)
	}
	if sc := e.SurplusCount(0); sc >= 20 {
		t.Fatalf("SurplusCount(0) after repayment visits = %d, want < 20", sc)
	}
}
