package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/sched"
)

// span is one timed call into a layer: its name, start and end in ns
// since the tracer started, and the span that caused it (0 = none).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the traced run's spans in memory until write. Only
// coarse calls (a Step, a Run epoch, an exec job, a request) become
// spans; per-call scheduler timings go into histograms (callStats),
// which a million-decision run could not hold as spans.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	next  int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// ns returns t as nanoseconds since the tracer started.
func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.t0).Nanoseconds() }

// add records a finished span and returns its id. Safe for concurrent
// use.
func (t *tracer) add(name string, parent int64, start, end time.Time) int64 {
	id := t.reserve()
	t.addID(id, name, parent, start, end)
	return id
}

// reserve returns a fresh span id for a parent whose span is added
// (with addID) only after its children.
func (t *tracer) reserve() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

func (t *tracer) addID(id int64, name string, parent int64, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: t.ns(start), End: t.ns(end)})
}

// write stores the spans as JSON lines, after one header line holding
// the host block, in dir/<workload>-seed<seed>.jsonl.
func (t *tracer) write(dir, workload string, seed uint64, host hostInfo) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed)))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	err = enc.Encode(map[string]any{"workload": workload, "seed": seed, "host": host, "spans": len(t.spans)})
	for i := 0; err == nil && i < len(t.spans); i++ {
		err = enc.Encode(t.spans[i])
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// callStats accumulates the host time of one scheduler's calls. hists
// is nil where only totals are wanted (the 160k NoC arbiters).
type callStats struct {
	n, ns [3]int64
	hists *[3]hist
}

const (
	callArrival = iota
	callNext
	callDone
)

func (c *callStats) rec(kind int, t0 time.Time) {
	d := time.Since(t0).Nanoseconds()
	c.n[kind]++
	c.ns[kind] += d
	if c.hists != nil {
		c.hists[kind].add(d)
	}
}

// timedSched times every call into a wrapped scheduler. Use wrapSched:
// it returns a decorator that implements sched.HeadOfLineArb or
// sched.LengthAware exactly when the wrapped discipline does, so the
// router and the engine treat the wrapped discipline as they would
// the bare one.
type timedSched struct {
	inner sched.Scheduler
	st    *callStats
}

func (t timedSched) Name() string { return t.inner.Name() }

func (t timedSched) OnArrival(flow int, wasEmpty bool) {
	t0 := time.Now()
	t.inner.OnArrival(flow, wasEmpty)
	t.st.rec(callArrival, t0)
}

func (t timedSched) NextFlow() int {
	t0 := time.Now()
	f := t.inner.NextFlow()
	t.st.rec(callNext, t0)
	return f
}

func (t timedSched) OnPacketDone(flow int, cost int64, nowEmpty bool) {
	t0 := time.Now()
	t.inner.OnPacketDone(flow, cost, nowEmpty)
	t.st.rec(callDone, t0)
}

type timedHOL struct{ timedSched }

func (timedHOL) HeadOfLineSafe() {}

type timedLengthAware struct {
	timedSched
	la sched.LengthAware
}

func (t timedLengthAware) OnArrivalLength(flow int, length int) {
	t0 := time.Now()
	t.la.OnArrivalLength(flow, length)
	t.st.rec(callArrival, t0)
}

// wrapSched returns s wrapped in a timing decorator recording into st.
func wrapSched(s sched.Scheduler, st *callStats) sched.Scheduler {
	base := timedSched{inner: s, st: st}
	switch v := s.(type) {
	case sched.HeadOfLineArb:
		return timedHOL{base}
	case sched.LengthAware:
		return timedLengthAware{base, v}
	}
	return base
}
