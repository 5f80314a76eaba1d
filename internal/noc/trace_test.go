package noc

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/trace"
)

// traceMode names one stepping configuration of the cross-mode
// differential: the flight recorder must emit byte-identical artifacts
// under every one of them.
type traceMode struct {
	name     string
	stepped  bool
	fullScan bool
	workers  int // > 0: sharded-parallel stepping with this many workers
}

var traceModes = []traceMode{
	{name: "stepped", stepped: true},
	{name: "event", stepped: false},
	{name: "fullscan", stepped: true, fullScan: true},
	{name: "parallel4", stepped: false, workers: 4},
}

// traceArtifacts renders everything the recorder exports — JSONL
// spans, the Chrome trace, and the rollup table — into one byte blob.
func traceArtifacts(t *testing.T, tr *trace.Trace, ws []trace.FaultWindow) []byte {
	t.Helper()
	recs := tr.Records()
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, recs, ws); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteChrome(&buf, recs, ws); err != nil {
		t.Fatal(err)
	}
	if err := tr.Rollup().Render(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// traceRun drives one bursty, faulted scenario in the given mode with
// the flight recorder attached and returns the rendered artifacts.
func traceRun(t *testing.T, mode traceMode, sampleEvery int, spec string) ([]byte, *trace.Trace) {
	t.Helper()
	cfg := Config{K: 4, VCs: 2, BufFlits: 4,
		NewArb: func() sched.Scheduler { return core.New() }}
	m, err := NewMesh(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.SetStepped(mode.stepped)
	m.SetFullScan(mode.fullScan)
	if mode.workers > 0 {
		p := exec.NewPool(mode.workers)
		defer p.Close()
		pooled(m, p)
	}
	var ws []trace.FaultWindow
	if spec != "" {
		sp, err := fault.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		m.InstallFaults(fault.New(sp, 99))
		ws = trace.WindowsFromSpec(sp)
	}
	tr := m.EnableTrace(TraceConfig{Seed: 0xfeed, SampleEvery: sampleEvery, EpochCycles: 512})
	src := rng.New(21)
	for _, at := range []int64{0, 900, 2600} {
		for i := 0; i < 60; i++ {
			s, d := src.Intn(m.Nodes()), src.Intn(m.Nodes())
			if s == d {
				d = (d + 1) % m.Nodes()
			}
			m.SendAt(at+int64(src.Intn(20)), s, d, src.IntRange(1, 6))
		}
	}
	m.Run(4000)
	m.Drain(6000)
	tr.Finish(m.Cycle())
	return traceArtifacts(t, tr, ws), tr
}

// TestTraceByteIdenticalAcrossModes pins the flight recorder's central
// contract: with full sampling and an active fault spec, the JSONL
// spans, the Chrome trace, and the rollup table are byte-identical
// across stepped, event-driven, full-scan, and sharded-parallel
// stepping.
func TestTraceByteIdenticalAcrossModes(t *testing.T) {
	const spec = "stall(router=5,port=1,at=300,dur=400);freeze(router=6,at=1000,dur=200)"
	base, btr := traceRun(t, traceModes[0], 1, spec)
	if len(btr.Records()) == 0 {
		t.Fatal("scenario degenerate: no records traced")
	}
	if btr.Dropped() != 0 {
		t.Fatalf("baseline dropped %d records; grow the rings", btr.Dropped())
	}
	for _, mode := range traceModes[1:] {
		got, gtr := traceRun(t, mode, 1, spec)
		if gtr.Dropped() != 0 {
			t.Fatalf("%s: dropped %d records", mode.name, gtr.Dropped())
		}
		if !bytes.Equal(base, got) {
			t.Errorf("%s: trace artifacts diverge from stepped oracle (%d vs %d bytes)",
				mode.name, len(base), len(got))
		}
	}
}

// TestTraceSampledSubset pins that sampling selects by packet id, not
// by record availability: every record of a 1-in-4 run also appears in
// the full-sampling run, and the sampled ids agree with the Sampler.
func TestTraceSampledSubset(t *testing.T) {
	full, ftr := traceRun(t, traceModes[0], 1, "")
	_ = full
	sub, str := traceRun(t, traceModes[0], 4, "")
	_ = sub
	if str.Dropped() != 0 || ftr.Dropped() != 0 {
		t.Fatal("rings overflowed; grow them")
	}
	fullSet := map[trace.Record]bool{}
	for _, r := range ftr.Records() {
		fullSet[r] = true
	}
	recs := str.Records()
	if len(recs) == 0 {
		t.Fatal("1-in-4 sampling traced nothing")
	}
	if len(recs) >= len(fullSet) {
		t.Fatalf("sampling did not thin records: %d of %d", len(recs), len(fullSet))
	}
	s := str.Sampler()
	for _, r := range recs {
		if !fullSet[r] {
			t.Fatalf("sampled record absent from full run: %+v", r)
		}
		if !s.Sample(r.PktID) {
			t.Fatalf("record for unsampled packet %d", r.PktID)
		}
	}
}

// TestTraceAuditClean runs the span auditor over a faulted cross-mode
// scenario and requires zero invariant violations.
func TestTraceAuditClean(t *testing.T) {
	_, tr := traceRun(t, traceModes[1], 1, "stall(router=5,port=1,at=300,dur=400)")
	viol := 0
	n := trace.Audit(tr.Records(), func(cycle int64, invariant string, flow int, format string, argv ...any) {
		viol++
		t.Errorf("cycle %d %s flow %d: "+format, append([]any{cycle, invariant, flow}, argv...)...)
	})
	if n != viol {
		t.Fatalf("Audit returned %d but reported %d violations", n, viol)
	}
}

// FuzzTraceOracle fuzzes the cross-mode byte-identity contract over
// the sampling seed, the traffic seed, and the fault windows: stepped
// and event-driven runs of the same scenario must export identical
// bytes, and the auditor must stay silent.
func FuzzTraceOracle(f *testing.F) {
	f.Add(uint64(1), int64(7), 300, 400)
	f.Add(uint64(0xfeed), int64(21), 0, 0)
	f.Add(uint64(42), int64(3), 950, 60)
	f.Fuzz(func(t *testing.T, seed uint64, traffic int64, at, dur int) {
		if at < 0 || dur < 0 || at > 3000 || dur > 2000 {
			t.Skip()
		}
		spec := ""
		if dur > 0 {
			spec = fmt.Sprintf("stall(router=5,port=1,at=%d,dur=%d)", at, dur)
		}
		run := func(stepped bool) ([]byte, *trace.Trace) {
			cfg := Config{K: 3, VCs: 2, BufFlits: 4,
				NewArb: func() sched.Scheduler { return core.New() }}
			m, err := NewMesh(cfg)
			if err != nil {
				t.Fatal(err)
			}
			m.SetStepped(stepped)
			var ws []trace.FaultWindow
			if spec != "" {
				sp, err := fault.Parse(spec)
				if err != nil {
					t.Fatal(err)
				}
				m.InstallFaults(fault.New(sp, 99))
				ws = trace.WindowsFromSpec(sp)
			}
			tr := m.EnableTrace(TraceConfig{Seed: seed, SampleEvery: 1, EpochCycles: 256})
			src := rng.New(uint64(traffic))
			for _, a := range []int64{0, 700} {
				for i := 0; i < 25; i++ {
					s, d := src.Intn(m.Nodes()), src.Intn(m.Nodes())
					if s == d {
						d = (d + 1) % m.Nodes()
					}
					m.SendAt(a+int64(src.Intn(15)), s, d, src.IntRange(1, 5))
				}
			}
			m.Run(1500)
			m.Drain(4000)
			tr.Finish(m.Cycle())
			return traceArtifacts(t, tr, ws), tr
		}
		base, btr := run(true)
		got, _ := run(false)
		if !bytes.Equal(base, got) {
			t.Fatalf("stepped and event trace artifacts diverge (%d vs %d bytes)", len(base), len(got))
		}
		if n := trace.Audit(btr.Records(), func(cycle int64, invariant string, flow int, format string, argv ...any) {
			t.Errorf("cycle %d %s flow %d: "+format, append([]any{cycle, invariant, flow}, argv...)...)
		}); n != 0 {
			t.Fatalf("%d span-invariant violations", n)
		}
	})
}

// TestTraceDisabledInstallsNothing pins the contract behind the
// overhead gate's no-op control: with SampleEvery <= 0, EnableTrace
// leaves the mesh untouched — no inject/deliver hook, no router
// tracers — so running with the recorder disabled is structurally the
// run without a recorder, and the returned Trace stays empty.
func TestTraceDisabledInstallsNothing(t *testing.T) {
	m, err := NewMesh(Config{K: 4, VCs: 2, BufFlits: 4,
		NewArb: func() sched.Scheduler { return core.New() }})
	if err != nil {
		t.Fatal(err)
	}
	tr := m.EnableTrace(TraceConfig{Seed: 1, SampleEvery: 0})
	if m.tr != nil {
		t.Fatal("EnableTrace(SampleEvery=0) attached a recorder to the mesh")
	}
	src := rng.New(3)
	for i := 0; i < 40; i++ {
		m.Send(src.Intn(m.Nodes()), src.Intn(m.Nodes()), src.IntRange(1, 4))
	}
	m.Run(500)
	m.Drain(4000)
	tr.Finish(m.Cycle())
	if n := len(tr.Records()); n != 0 {
		t.Fatalf("disabled recorder collected %d records", n)
	}
	if got := tr.Rollup().Latency().Count(); got != 0 {
		t.Fatalf("disabled recorder observed %d latencies", got)
	}
}
