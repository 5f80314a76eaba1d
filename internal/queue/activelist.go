package queue

// ActiveList is the FIFO of active flow ids maintained by round-robin
// schedulers (ERR Figure 1, DRR). It supports O(1) membership test,
// O(1) add-to-tail, and O(1) remove-from-head, which is what Theorem 1
// of the paper relies on for the O(1) work complexity of ERR.
//
// Implementation: a growable ring of flow ids plus a membership
// table indexed by flow id. The same flow may not appear twice.
// The zero value is an empty list; flows of any non-negative id may
// be added (the table grows on demand, with amortized O(1) cost).
type ActiveList struct {
	ring       []int
	head, size int
	member     []bool
}

// Len returns the number of flows in the list.
func (l *ActiveList) Len() int { return l.size }

// Empty reports whether the list has no flows.
func (l *ActiveList) Empty() bool { return l.size == 0 }

// Contains reports whether flow id is currently in the list.
// This is ExistsInActiveList from the paper's pseudo-code.
func (l *ActiveList) Contains(id int) bool {
	return id >= 0 && id < len(l.member) && l.member[id]
}

// PushTail appends flow id at the tail. It panics if the flow is
// already present (schedulers must check Contains first; a double add
// would break the round-robin invariant silently).
func (l *ActiveList) PushTail(id int) {
	if id < 0 {
		panic("queue: negative flow id")
	}
	if l.Contains(id) {
		panic("queue: flow already in ActiveList")
	}
	Extend(&l.member, id+1)
	if l.size == len(l.ring) {
		l.grow()
	}
	l.ring[(l.head+l.size)%len(l.ring)] = id
	l.size++
	l.member[id] = true
}

// PopHead removes and returns the flow id at the head. It panics if
// the list is empty.
func (l *ActiveList) PopHead() int {
	if l.size == 0 {
		panic("queue: PopHead from empty ActiveList")
	}
	id := l.ring[l.head]
	l.head = (l.head + 1) % len(l.ring)
	l.size--
	l.member[id] = false
	return id
}

// PeekHead returns the flow id at the head without removing it.
// It panics if the list is empty.
func (l *ActiveList) PeekHead() int {
	if l.size == 0 {
		panic("queue: PeekHead on empty ActiveList")
	}
	return l.ring[l.head]
}

// Snapshot returns the flow ids in FIFO order (head first). Intended
// for tests and tracing; O(n).
func (l *ActiveList) Snapshot() []int {
	out := make([]int, l.size)
	for i := 0; i < l.size; i++ {
		out[i] = l.ring[(l.head+i)%len(l.ring)]
	}
	return out
}

func (l *ActiveList) grow() {
	n := len(l.ring) * 2
	if n == 0 {
		n = 8
	}
	nr := make([]int, n)
	for i := 0; i < l.size; i++ {
		nr[i] = l.ring[(l.head+i)%len(l.ring)]
	}
	l.ring = nr
	l.head = 0
}

// Extend lengthens *s to at least n elements, the new ones zero. It
// grows the per-flow tables of the round-robin schedulers: append's
// geometric capacity makes covering flow ids 0..n-1 cost O(n) in
// total in any activation order, where growing to exactly n would
// copy the table on every new highest id (O(n^2)). Capacity slack is
// never read, since callers index only below len.
func Extend[T any](s *[]T, n int) {
	if n > len(*s) {
		*s = append(*s, make([]T, n-len(*s))...)
	}
}
