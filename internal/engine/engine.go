// Package engine is the cycle-driven single-server simulator behind
// the paper's Section 5 experiments: n flows with FIFO packet queues,
// a scheduler arbitrating access to one output that forwards one flit
// per cycle, and an optional downstream-stall model that makes a
// packet's occupancy of the output exceed its length — the defining
// wormhole phenomenon ("a packet of length L ... may take more than
// L/C seconds for transmission").
//
// The engine drives either a packet-granularity sched.Scheduler (ERR,
// DRR, PBRR, FCFS, ...) or a flit-granularity sched.FlitScheduler
// (FBRR). Packet-granularity service keeps a packet's flits
// contiguous on the output, as wormhole switching requires when
// scheduling into an output queue.
package engine

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/flit"
	"repro/internal/queue"
	"repro/internal/sched"
	"repro/internal/traffic"
)

// StallModel injects downstream congestion: before each flit of a
// packet is forwarded, the model returns how many cycles the output
// stays blocked. A nil model means no stalls (classic store-and-
// forward timing, occupancy == length).
type StallModel interface {
	// FlitStall returns the stall cycles preceding the next flit of
	// the given flow's current packet (>= 0).
	FlitStall(flow int) int
}

// StallFunc adapts a function to a StallModel.
type StallFunc func(flow int) int

// FlitStall implements StallModel.
func (f StallFunc) FlitStall(flow int) int { return f(flow) }

// CycleStallModel is an optional extension of StallModel for models
// that need the current cycle — fault injectors stalling a link
// during a configured window, time-varying congestion. When the
// configured Stall implements it, the engine calls FlitStallAt
// instead of FlitStall.
type CycleStallModel interface {
	StallModel
	// FlitStallAt returns the stall cycles preceding the next flit of
	// the given flow's current packet when that flit becomes eligible
	// at the given cycle (>= 0).
	FlitStallAt(flow int, cycle int64) int
}

// Config configures an Engine. Exactly one of Scheduler or FlitSched
// must be set.
type Config struct {
	// Flows is the number of flows (queues).
	Flows int
	// Scheduler is a packet-granularity discipline.
	Scheduler sched.Scheduler
	// FlitSched is a flit-granularity discipline (FBRR).
	FlitSched sched.FlitScheduler
	// Source generates arrivals; nil means no arrivals (packets may
	// still be injected with Inject).
	Source traffic.Source
	// Stall models downstream congestion. When set with a
	// sched.LengthAware Scheduler, NewEngine fails unless
	// AllowLengthAwareStalls is set: a discipline that budgets
	// a-priori lengths has no meaningful occupancy accounting, which
	// is the paper's argument for why DRR cannot serve a wormhole
	// switch. The override exists for the ablation experiments that
	// quantify exactly that failure.
	Stall                  StallModel
	AllowLengthAwareStalls bool

	// OnFlit, if set, observes every cycle in which a flit is
	// forwarded (flow id) — the feed for metrics.ServiceLog and
	// metrics.FairnessTracker.
	OnFlit func(cycle int64, flow int)
	// OnIdle, if set, observes cycles in which no flit is forwarded
	// and no packet occupies the output.
	OnIdle func(cycle int64)
	// OnStall, if set, observes cycles in which the output is
	// occupied by a packet of the given flow but downstream
	// congestion blocked the flit — occupancy without service, the
	// wormhole phenomenon. When OnStall is nil such cycles are
	// reported to OnIdle instead (so OnIdle alone still accounts for
	// every non-forwarding cycle).
	OnStall func(cycle int64, flow int)
	// OnDeparture, if set, observes packet completions: the packet,
	// the cycle its tail flit left, and its occupancy in cycles
	// (== length when there are no stalls).
	OnDeparture func(p flit.Packet, cycle int64, occupancy int64)
	// OnInject, if set, observes every packet admitted to a queue
	// (after the engine stamps Arrival and ID) — the counterpart of
	// OnDeparture that lets an observer track the in-flight backlog
	// without polling.
	OnInject func(p flit.Packet, cycle int64)
	// OnReject, if set, observes malformed packets refused at
	// injection (zero-length, bad flow id, a length or destination
	// outside int32) with the typed validation
	// error. Rejected packets never enter a queue and never reach the
	// scheduler; a nil OnReject simply drops them silently. Arrivals
	// from a Source are validated the same way, so a fault-injected
	// source degrades into counted rejections instead of a panic.
	OnReject func(p flit.Packet, cycle int64, err error)
}

// Engine simulates the configured system cycle by cycle.
type Engine struct {
	cfg Config
	// queues holds every flow's packets in one shared slab: 12 bytes
	// per flow plus one 32-byte slot per packet actually queued.
	queues queue.FlowFIFOs[queued]
	cycle  int64
	nextID int64

	// The optional interfaces of cfg.Scheduler and cfg.Stall,
	// resolved once by NewEngine; nil when not implemented.
	clock      sched.ClockAware
	lengths    sched.LengthAware
	cycleStall CycleStallModel

	// Packet-granularity service state: the packet in service has
	// left its queue.
	inService bool
	current   flit.Packet
	sentFlits int
	occupancy int64
	stallLeft int

	// Flit-granularity service state: a flow's packet in service
	// stays at the head of its queue until its tail flit leaves, and
	// sent counts the flits of it already forwarded.
	sent []int32

	// backlogPackets counts queued packets: in flit mode that includes
	// the packets in service at their queue heads, so the per-cycle
	// pending check and Backlog are O(1) instead of O(flows).
	backlogPackets int
	// backlogFlits counts flits injected but not yet forwarded, so
	// conservation audits (injected = forwarded + in flight) are O(1).
	backlogFlits int64
	rejected     int64
}

// NewEngine validates cfg and returns an engine.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Flows < 1 {
		return nil, errors.New("engine: Flows must be >= 1")
	}
	if (cfg.Scheduler == nil) == (cfg.FlitSched == nil) {
		return nil, errors.New("engine: exactly one of Scheduler or FlitSched must be set")
	}
	e := &Engine{
		cfg:    cfg,
		queues: queue.NewFlowFIFOs[queued](cfg.Flows),
	}
	e.clock, _ = cfg.Scheduler.(sched.ClockAware)
	e.lengths, _ = cfg.Scheduler.(sched.LengthAware)
	e.cycleStall, _ = cfg.Stall.(CycleStallModel)
	if cfg.Stall != nil && e.lengths != nil && !cfg.AllowLengthAwareStalls {
		return nil, errors.New("engine: length-aware scheduler cannot run with a stall model (see Config.AllowLengthAwareStalls)")
	}
	if cfg.FlitSched != nil {
		e.sent = make([]int32, cfg.Flows)
	}
	return e, nil
}

// queued is a packet in its flow's queue; the flow is implied by the
// queue. With the slab's link it fills a 32-byte slot, where a whole
// flit.Packet would take 48.
type queued struct {
	arrival, id int64
	length, dst int32
}

func (q queued) packet(flow int) flit.Packet {
	return flit.Packet{Flow: flow, Length: int(q.length), Dst: int(q.dst), Arrival: q.arrival, ID: q.id}
}

// QueueLen implements traffic.QueueView: queued packets of a flow,
// including any packet in service.
func (e *Engine) QueueLen(flow int) int {
	n := e.queues.Len(flow)
	if e.inService && e.current.Flow == flow {
		n++
	}
	return n
}

// Cycle returns the current simulation cycle.
func (e *Engine) Cycle() int64 { return e.cycle }

// BacklogFlits returns the number of flits injected but not yet
// forwarded (including the unsent remainder of any packet in
// service) — the in-flight term of the flit-conservation invariant.
func (e *Engine) BacklogFlits() int64 { return e.backlogFlits }

// Rejected returns the number of malformed packets refused at
// injection.
func (e *Engine) Rejected() int64 { return e.rejected }

// Backlog returns the number of packets not yet fully served
// (including any in service).
func (e *Engine) Backlog() int {
	if e.inService {
		return e.backlogPackets + 1
	}
	return e.backlogPackets
}

// Inject offers a packet to the engine (used by traffic sources,
// tests and the switch substrate); the packet's Arrival and ID are
// stamped by the engine. Malformed packets — zero-length, flow id
// outside [0, Flows), a length or destination outside int32 — are
// rejected with a typed error (see flit.ErrZeroLength,
// flit.ErrBadFlow, flit.ErrFieldRange), reported to OnReject, and
// never reach a queue or the scheduler.
func (e *Engine) Inject(p flit.Packet) error {
	err := p.Validate()
	switch {
	case err != nil:
	case p.Flow >= e.cfg.Flows:
		err = fmt.Errorf("%w: flow %d >= %d flows", flit.ErrBadFlow, p.Flow, e.cfg.Flows)
	case p.Length > math.MaxInt32:
		err = fmt.Errorf("%w: length %d > math.MaxInt32", flit.ErrFieldRange, p.Length)
	case p.Dst < math.MinInt32 || p.Dst > math.MaxInt32:
		err = fmt.Errorf("%w: dst %d outside int32", flit.ErrFieldRange, p.Dst)
	}
	if err != nil {
		e.rejected++
		if e.cfg.OnReject != nil {
			e.cfg.OnReject(p, e.cycle, err)
		}
		return err
	}
	p.Arrival = e.cycle
	p.ID = e.nextID
	e.nextID++
	wasEmpty := e.QueueLen(p.Flow) == 0
	e.queues.Push(p.Flow, queued{arrival: p.Arrival, id: p.ID, length: int32(p.Length), dst: int32(p.Dst)})
	e.backlogPackets++
	e.backlogFlits += int64(p.Length)
	if s := e.cfg.Scheduler; s != nil {
		s.OnArrival(p.Flow, wasEmpty)
		if e.lengths != nil {
			e.lengths.OnArrivalLength(p.Flow, p.Length)
		}
	} else {
		e.cfg.FlitSched.OnArrival(p.Flow, wasEmpty)
	}
	if e.cfg.OnInject != nil {
		e.cfg.OnInject(p, e.cycle)
	}
	return nil
}

// Step advances the simulation by one cycle: arrivals first, then at
// most one flit (or stall) of service.
func (e *Engine) Step() {
	if e.clock != nil {
		e.clock.SetNow(e.cycle)
	}
	if e.cfg.Source != nil {
		for _, p := range e.cfg.Source.Arrivals(e.cycle, e) {
			e.Inject(p)
		}
	}
	if e.cfg.Scheduler != nil {
		e.stepPacketMode()
	} else {
		e.stepFlitMode()
	}
	e.cycle++
}

func (e *Engine) stepPacketMode() {
	if !e.inService {
		if e.backlogPackets == 0 {
			e.idle()
			return
		}
		flow := e.cfg.Scheduler.NextFlow()
		if e.queues.Empty(flow) {
			panic("engine: scheduler selected an empty flow")
		}
		e.current = e.queues.Pop(flow).packet(flow)
		e.backlogPackets--
		e.inService = true
		e.sentFlits = 0
		e.occupancy = 0
		e.stallLeft = e.stall(flow)
	}
	e.occupancy++
	if e.stallLeft > 0 {
		e.stallLeft--
		if e.cfg.OnStall != nil {
			e.cfg.OnStall(e.cycle, e.current.Flow)
		} else {
			e.idle()
		}
		return
	}
	// Forward one flit.
	e.sentFlits++
	e.backlogFlits--
	if e.cfg.OnFlit != nil {
		e.cfg.OnFlit(e.cycle, e.current.Flow)
	}
	if e.sentFlits < e.current.Length {
		e.stallLeft = e.stall(e.current.Flow)
		return
	}
	// Tail flit forwarded: the packet departs.
	e.inService = false
	if e.cfg.OnDeparture != nil {
		e.cfg.OnDeparture(e.current, e.cycle, e.occupancy)
	}
	e.cfg.Scheduler.OnPacketDone(e.current.Flow, e.occupancy, e.queues.Empty(e.current.Flow))
}

func (e *Engine) stepFlitMode() {
	if e.backlogPackets == 0 {
		e.idle()
		return
	}
	flow := e.cfg.FlitSched.NextFlow()
	if e.queues.Empty(flow) {
		panic("engine: flit scheduler selected an empty flow")
	}
	head := e.queues.Peek(flow)
	e.sent[flow]++
	e.backlogFlits--
	end := e.sent[flow] == head.length
	if end {
		e.sent[flow] = 0
		e.queues.Pop(flow)
		e.backlogPackets--
	}
	if e.cfg.OnFlit != nil {
		e.cfg.OnFlit(e.cycle, flow)
	}
	if end && e.cfg.OnDeparture != nil {
		e.cfg.OnDeparture(head.packet(flow), e.cycle, int64(head.length))
	}
	e.cfg.FlitSched.OnFlitDone(flow, end, end && e.queues.Empty(flow))
}

func (e *Engine) stall(flow int) int {
	var s int
	switch {
	case e.cycleStall != nil:
		s = e.cycleStall.FlitStallAt(flow, e.cycle)
	case e.cfg.Stall != nil:
		s = e.cfg.Stall.FlitStall(flow)
	default:
		return 0
	}
	if s < 0 {
		panic("engine: negative stall")
	}
	return s
}

func (e *Engine) idle() {
	if e.cfg.OnIdle != nil {
		e.cfg.OnIdle(e.cycle)
	}
}

// Run advances the simulation by n cycles.
func (e *Engine) Run(n int64) {
	for i := int64(0); i < n; i++ {
		e.Step()
	}
}

// RunUntilDrained steps until no packet remains in any queue or in
// service, or until maxCycles elapse; it returns the number of cycles
// stepped and whether the system drained.
func (e *Engine) RunUntilDrained(maxCycles int64) (cycles int64, drained bool) {
	for cycles = 0; cycles < maxCycles; cycles++ {
		if e.Backlog() == 0 {
			return cycles, true
		}
		e.Step()
	}
	return cycles, e.Backlog() == 0
}
