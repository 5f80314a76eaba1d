// Package harness provides a minimal, timing-free driver for
// sched.Scheduler implementations: per-flow FIFO queues, arrival
// delivery, and packet-at-a-time service with per-flow cumulative
// accounting. The full cycle-accurate simulator lives in package
// engine; this harness is the light-weight core used by unit and
// property tests of the disciplines themselves, where only the
// *order* and *amount* of service matters, not its timing.
package harness

import (
	"fmt"

	"repro/internal/flit"
	"repro/internal/queue"
	"repro/internal/sched"
)

// Driver owns per-flow queues and drives one scheduler.
type Driver struct {
	sched sched.Scheduler
	// clock and lengths are sched's optional interfaces, resolved
	// once by New; nil when not implemented.
	clock   sched.ClockAware
	lengths sched.LengthAware
	// queues holds every flow's packets in one shared slab.
	queues queue.FlowFIFOs[flit.Packet]
	served []int64 // cumulative flits served per flow
	// CostFn maps a dequeued packet to the cost billed to the
	// scheduler (default: its length). Experiments use it to model
	// wormhole occupancy exceeding packet length.
	CostFn func(p flit.Packet) int64
	// OnServe, if non-nil, observes every served packet with its cost.
	OnServe func(p flit.Packet, cost int64)
	backlog int   // packets across all queues
	now     int64 // pseudo-time: total cost served so far
}

// New returns a driver over n flows for the given scheduler.
func New(n int, s sched.Scheduler) *Driver {
	d := &Driver{
		sched:  s,
		queues: queue.NewFlowFIFOs[flit.Packet](n),
		served: make([]int64, n),
	}
	d.clock, _ = s.(sched.ClockAware)
	d.lengths, _ = s.(sched.LengthAware)
	return d
}

// Arrive appends a packet to its flow's queue and notifies the
// scheduler (including the length side-channel if the discipline is
// LengthAware).
func (d *Driver) Arrive(p flit.Packet) {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if p.Flow >= len(d.served) {
		panic(fmt.Sprintf("harness: flow %d outside the driver's %d flows", p.Flow, len(d.served)))
	}
	wasEmpty := d.queues.Empty(p.Flow)
	d.queues.Push(p.Flow, p)
	d.backlog++
	if d.clock != nil {
		d.clock.SetNow(d.now)
	}
	d.sched.OnArrival(p.Flow, wasEmpty)
	if d.lengths != nil {
		d.lengths.OnArrivalLength(p.Flow, p.Length)
	}
}

// Backlog returns the number of queued packets across all flows.
func (d *Driver) Backlog() int { return d.backlog }

// QueueLen returns the number of packets queued for flow.
func (d *Driver) QueueLen(flow int) int { return d.queues.Len(flow) }

// Served returns the cumulative flits served from flow.
func (d *Driver) Served(flow int) int64 { return d.served[flow] }

// ServeOne asks the scheduler for the next flow, dequeues that flow's
// head packet, bills the scheduler, and returns the packet. It panics
// if no packets are queued or if the scheduler selects an empty flow
// (a scheduler bug the harness refuses to mask).
func (d *Driver) ServeOne() flit.Packet {
	if d.backlog == 0 {
		panic("harness: ServeOne with no queued packets")
	}
	flow := d.sched.NextFlow()
	if d.queues.Empty(flow) {
		panic("harness: scheduler selected an empty flow")
	}
	p := d.queues.Pop(flow)
	d.backlog--
	cost := int64(p.Length)
	if d.CostFn != nil {
		cost = d.CostFn(p)
	}
	d.served[flow] += int64(p.Length)
	d.now += cost
	d.sched.OnPacketDone(flow, cost, d.queues.Empty(flow))
	if d.OnServe != nil {
		d.OnServe(p, cost)
	}
	return p
}

// Drain serves until every queue is empty, returning the packets in
// service order.
func (d *Driver) Drain() []flit.Packet {
	var out []flit.Packet
	for d.backlog > 0 {
		out = append(out, d.ServeOne())
	}
	return out
}

// ServeN serves up to n packets (fewer if the backlog drains),
// returning them in service order.
func (d *Driver) ServeN(n int) []flit.Packet {
	var out []flit.Packet
	for i := 0; i < n && d.backlog > 0; i++ {
		out = append(out, d.ServeOne())
	}
	return out
}
