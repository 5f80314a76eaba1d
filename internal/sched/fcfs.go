package sched

// FCFS serves packets in global arrival order (First-Come-First-
// Served), the discipline "most wormhole switches used today" employ
// per the paper's Section 2. It provides no isolation: a source that
// bursts above its fair share, or that sends longer packets, steals
// bandwidth from everyone else (Figure 4(c)).
//
// Implementation: a FIFO of flow ids, one entry per queued packet.
// Because each per-flow queue is itself a FIFO, serving the flow at
// the head of this list serves exactly the globally oldest packet.
// All operations are O(1).
type FCFS struct {
	order fifoInt
}

// NewFCFS returns an FCFS scheduler.
func NewFCFS() *FCFS { return &FCFS{} }

// Name implements Scheduler.
func (f *FCFS) Name() string { return "FCFS" }

// OnArrival implements Scheduler.
func (f *FCFS) OnArrival(flow int, wasEmpty bool) { f.order.push(flow) }

// NextFlow implements Scheduler.
func (f *FCFS) NextFlow() int {
	if f.order.empty() {
		panic("sched: FCFS.NextFlow with no queued packets")
	}
	return f.order.peek()
}

// OnPacketDone implements Scheduler.
func (f *FCFS) OnPacketDone(flow int, cost int64, nowEmpty bool) {
	got := f.order.pop()
	if got != flow {
		panic("sched: FCFS served a packet out of order")
	}
}

// fifoInt is a minimal growable ring buffer of ints: FCFS's global
// arrival order.
type fifoInt struct {
	buf        []int
	head, size int
}

func (q *fifoInt) empty() bool { return q.size == 0 }
func (q *fifoInt) len() int    { return q.size }

func (q *fifoInt) push(v int) {
	if q.size == len(q.buf) {
		n := len(q.buf) * 2
		if n == 0 {
			n = 8
		}
		nb := make([]int, n)
		for i := 0; i < q.size; i++ {
			nb[i] = q.buf[(q.head+i)%len(q.buf)]
		}
		q.buf = nb
		q.head = 0
	}
	q.buf[(q.head+q.size)%len(q.buf)] = v
	q.size++
}

func (q *fifoInt) pop() int {
	if q.size == 0 {
		panic("sched: pop from empty fifo")
	}
	v := q.buf[q.head]
	q.head = (q.head + 1) % len(q.buf)
	q.size--
	return v
}

func (q *fifoInt) peek() int {
	if q.size == 0 {
		panic("sched: peek on empty fifo")
	}
	return q.buf[q.head]
}
