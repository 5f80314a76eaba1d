package core

import "testing"

// growPastCapacity serves one-flit packets of flows id, id+1, ...
// (each activated and drained alone) until e's surplus table has been
// reallocated, and returns the next unused id.
func growPastCapacity(t *testing.T, e *ERR, id int) int {
	t.Helper()
	for old := cap(e.sc); cap(e.sc) == old; id++ {
		if id >= 1<<20 {
			t.Fatalf("surplus table never grew past capacity %d", old)
		}
		e.OnArrival(id, true)
		e.NextFlow()
		e.OnPacketDone(id, 1, true)
	}
	return id
}

// TestSurplusTableSlackReadsZero: flow ids in the surplus table's
// capacity slack [len, cap) have no surplus and are not active.
func TestSurplusTableSlackReadsZero(t *testing.T) {
	e := New()
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

// TestKeptSurplusSurvivesTableGrowth: under SetKeepSurplusOnDrain a
// drained flow's surplus count survives its table being reallocated,
// and still shrinks the flow's next allowance.
func TestKeptSurplusSurvivesTableGrowth(t *testing.T) {
	e := New()
	e.SetKeepSurplusOnDrain(true)
	e.OnArrival(0, true)
	e.NextFlow()
	e.OnPacketDone(0, 5, true) // allowance 1, sent 5: surplus 4
	for id := 1; id < 1000; {
		id = growPastCapacity(t, e, id)
		if sc := e.SurplusCount(0); sc != 4 {
			t.Fatalf("SurplusCount(0) after growth to capacity %d = %d, want 4", cap(e.sc), sc)
		}
	}
	// The system is idle, so MaxSC is 0 and flow 0's allowance is
	// 1*(1+0) - 4.
	e.OnArrival(0, true)
	if f := e.NextFlow(); f != 0 || e.allowance != -3 {
		t.Fatalf("NextFlow = %d with allowance %d, want flow 0 with allowance -3", f, e.allowance)
	}
}
