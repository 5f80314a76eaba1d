package sched

import (
	"fmt"

	"repro/internal/queue"
)

// IWRR is Interleaved Weighted Round Robin (the variant analysed by
// Tabatabaee, Le Boudec & Boyer, "Interleaved Weighted Round-Robin: A
// Network Calculus Analysis"): a round consists of w_max cycles, and
// in cycle k (0-based) every backlogged flow whose weight exceeds k
// transmits one packet. Where WRR sends a flow's whole per-round
// budget back to back, IWRR spreads the budget across the round — a
// weight-4 flow's packets interleave with everyone else's instead of
// monopolising the output for four packets in a row, which is what
// tightens its latency bound (see internal/bounds).
//
// With equal weights every cycle degenerates to one packet per flow
// and IWRR is byte-for-byte PBRR (pinned by TestIWRREqualWeightsIsPBRR).
//
// Implementation: three ActiveLists. cur holds the flows still owed
// an opportunity in the current cycle, next the flows waiting for the
// following cycle of the same round, parked the flows waiting for the
// next round (budget exhausted, or newly activated — a joiner waits
// for the round boundary, which keeps the per-round service caps of
// the bounds analysis valid). Per-flow budgets reset lazily via a
// round stamp, so a round costs O(served flows), not O(all flows).
//
// IWRR is blind to packet lengths (no LengthAware), so it can
// arbitrate a wormhole router output: HeadOfLineArb.
type IWRR struct {
	weight func(flow int) int

	cur    queue.ActiveList // flows owed service this cycle
	next   queue.ActiveList // flows for the following cycle, this round
	parked queue.ActiveList // flows waiting for the next round

	// rem and stamp are indexed by flow id and grown on demand; a
	// flow's rem is valid only when stamp[flow] == round.
	rem     []int
	stamp   []int64
	round   int64
	current int // flow being served, or -1
}

// NewIWRR returns an IWRR scheduler. weight must return >= 1 for
// every flow; nil means weight 1 for all flows (pure PBRR).
func NewIWRR(weight func(flow int) int) *IWRR {
	if weight == nil {
		weight = func(int) int { return 1 }
	}
	return &IWRR{weight: weight, round: 1, current: -1}
}

// Name implements Scheduler.
func (s *IWRR) Name() string { return "IWRR" }

// weightOf validates and returns flow's weight.
func (s *IWRR) weightOf(flow int) int {
	w := s.weight(flow)
	if w < 1 {
		panic(fmt.Sprintf("sched: IWRR weight %d < 1 for flow %d", w, flow))
	}
	return w
}

// grow ensures the per-flow tables cover flow.
func (s *IWRR) grow(flow int) {
	queue.Extend(&s.rem, flow+1)
	queue.Extend(&s.stamp, flow+1)
}

// member reports whether flow is in any of the three lists.
func (s *IWRR) member(flow int) bool {
	return s.cur.Contains(flow) || s.next.Contains(flow) || s.parked.Contains(flow)
}

// OnArrival implements Scheduler. A newly active flow parks until the
// next round boundary (like a WRR/DRR joiner waiting for its
// round-robin turn); a flow already listed, or in service, is left
// where it is.
func (s *IWRR) OnArrival(flow int, wasEmpty bool) {
	s.grow(flow)
	if flow != s.current && !s.member(flow) {
		s.parked.PushTail(flow)
	}
}

// NextFlow implements Scheduler.
func (s *IWRR) NextFlow() int {
	if s.current != -1 {
		panic("sched: IWRR.NextFlow while a packet is in service")
	}
	for s.cur.Empty() {
		s.advance()
	}
	flow := s.cur.PopHead()
	if s.stamp[flow] != s.round {
		s.stamp[flow] = s.round
		s.rem[flow] = s.weightOf(flow)
	}
	s.current = flow
	return flow
}

// advance moves to the next cycle of the round, or — when the round
// is exhausted — starts a new round from the parked flows.
func (s *IWRR) advance() {
	if !s.next.Empty() {
		s.cur, s.next = s.next, s.cur
		return
	}
	if s.parked.Empty() {
		panic("sched: IWRR.NextFlow with no active flows")
	}
	s.round++
	s.cur, s.parked = s.parked, s.cur
}

// OnPacketDone implements Scheduler.
func (s *IWRR) OnPacketDone(flow int, cost int64, nowEmpty bool) {
	if flow != s.current {
		panic("sched: IWRR completion for a flow not in service")
	}
	s.current = -1
	s.rem[flow]--
	if nowEmpty {
		return
	}
	if s.rem[flow] > 0 {
		s.next.PushTail(flow)
	} else {
		s.parked.PushTail(flow)
	}
}

// HeadOfLineSafe implements HeadOfLineArb: IWRR is not LengthAware
// and reschedules a still-backlogged flow by itself in OnPacketDone.
func (s *IWRR) HeadOfLineSafe() {}

var _ HeadOfLineArb = (*IWRR)(nil)
