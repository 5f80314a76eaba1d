package noc

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/flit"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sched"
)

// eventRunOpts parameterises one event-core oracle scenario: bursty
// scheduled traffic (the regime event-driven advancement exists for)
// on an arbitrary mesh config, optionally faulted, in event-driven or
// stepped-oracle mode.
type eventRunOpts struct {
	cfg      Config
	spec     string // fault spec, "" = clean
	stepped  bool   // SetStepped oracle mode
	workers  int    // > 0: attach an exec.Pool of this size
	grain    int    // > 0: override the fan-out grain (stepGrain)
	bursts   []int64
	perBurst int
	run      int64
	drain    int64
}

// eventRun drives one scenario through the Run/Drain event core and
// returns its artifacts plus the skipped-cycle count. Unlike
// runOracleRun it never steps manually: the point is to exercise
// event-to-event advancement against the stepped oracle.
func eventRun(t *testing.T, o eventRunOpts) (runArtifacts, int64) {
	t.Helper()
	m, err := NewMesh(o.cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	m.RegisterObs(reg)
	m.SetStepped(o.stepped)
	if o.workers > 0 {
		p := exec.NewPool(o.workers)
		defer p.Close()
		m.SetPool(p)
	}
	if o.grain > 0 {
		m.grain = o.grain
	}
	if o.spec != "" {
		spec, err := fault.Parse(o.spec)
		if err != nil {
			t.Fatal(err)
		}
		m.InstallFaults(fault.New(spec, 99))
	}
	var log []delivRec
	for id := range m.sinks {
		id := id
		s := m.sinks[id]
		prev := s.OnFlit
		s.OnFlit = func(f flit.Flit, vc int, cycle int64) {
			log = append(log, delivRec{node: id, flow: f.Flow, seq: f.Seq,
				vc: vc, kind: f.Kind, pkt: f.PktID, cycle: cycle})
			if prev != nil {
				prev(f, vc, cycle)
			}
		}
	}
	src := rng.New(21)
	for _, at := range o.bursts {
		for i := 0; i < o.perBurst; i++ {
			s, d := src.Intn(m.Nodes()), src.Intn(m.Nodes())
			if s == d {
				d = (d + 1) % m.Nodes()
			}
			m.SendAt(at+int64(src.Intn(20)), s, d, src.IntRange(1, 6))
		}
	}
	m.Run(o.run)
	// Faulted scenarios may legitimately wedge (dropped tails); the
	// oracle compares final cycle and in-flight count instead of
	// requiring a drain.
	m.Drain(o.drain)
	return runArtifacts{
		log:      log,
		packets:  append([]int64(nil), m.DeliveredPackets...),
		flits:    append([]int64(nil), m.DeliveredFlits...),
		cycle:    m.Cycle(),
		inFlight: m.InFlight(),
		latN:     m.Latency.N(),
		latMean:  m.Latency.Mean(),
		latVar:   m.Latency.Var(),
		latMin:   m.Latency.Min(),
		latMax:   m.Latency.Max(),
		obs:      reg.Snapshot(),
	}.takeFanouts(), m.Skipped()
}

// assertEventMatchesStepped runs a scenario in both modes and pins the
// event-core contract: byte-identical artifacts (telemetry masked —
// router_computes and cells_visited legitimately count only performed
// work), an identical noc.cycles total, and the event run actually
// skipping something.
func assertEventMatchesStepped(t *testing.T, name string, o eventRunOpts) {
	t.Helper()
	o.stepped = true
	base, skippedOracle := eventRun(t, o)
	if base.latN == 0 {
		t.Fatalf("%s: scenario degenerate: nothing delivered", name)
	}
	if skippedOracle != 0 {
		t.Fatalf("%s: stepped oracle still skipped %d cycles", name, skippedOracle)
	}
	o.stepped = false
	got, skipped := eventRun(t, o)
	if skipped == 0 {
		t.Fatalf("%s: event core never skipped a cycle on a bursty scenario", name)
	}
	assertArtifactsEqual(t, name, base, got, false)
	if a, b := base.obs.Counters["noc.cycles"], got.obs.Counters["noc.cycles"]; a != b {
		t.Errorf("%s: obs cycle counters diverge: stepped %d, event %d", name, a, b)
	}
}

// TestEventMatchesSteppedMeshFaults is the adversarial event-core
// oracle on a mesh: a freeze window spanning an entire idle gap AND
// the next burst (a dormant-frozen router must wake exactly at the
// thaw edge while neighbours hold worms aimed at it), a stall window
// opening just before a burst, plus probabilistic drop/corruption.
// Event-driven Run/Drain must be byte-identical to literal stepping.
func TestEventMatchesSteppedMeshFaults(t *testing.T) {
	assertEventMatchesStepped(t, "event-vs-stepped-mesh-faults", eventRunOpts{
		cfg: Config{K: 4, VCs: 2, BufFlits: 4,
			NewArb: func() sched.Scheduler { return core.New() }},
		spec:     "freeze(router=6,at=30,dur=5100);stall(port=1,at=4990,dur=300);drop(router=5,port=1,p=0.05);corrupt(router=10,p=0.05)",
		bursts:   []int64{0, 5000, 10000},
		perBurst: 12,
		run:      12_000,
		drain:    6_000,
	})
}

// TestEventMatchesSteppedTorusFaults repeats the oracle on a torus
// (dateline VCs, wrap routing) under a stall window and a freeze that
// opens mid-burst.
func TestEventMatchesSteppedTorusFaults(t *testing.T) {
	assertEventMatchesStepped(t, "event-vs-stepped-torus-faults", eventRunOpts{
		cfg: Config{K: 4, VCs: 4, BufFlits: 4, Torus: true,
			NewArb: func() sched.Scheduler { return core.New() }},
		spec:     "stall(port=1,at=5005,dur=400);freeze(router=6,at=10,dur=200)",
		bursts:   []int64{0, 5000, 10000},
		perBurst: 12,
		run:      12_000,
		drain:    6_000,
	})
}

// TestEventMatchesSteppedDAMQ pins the event core on shared-buffer
// (DAMQ) inputs, whose stop/go gates must keep routers polling (never
// dormant) even under a stall window with known edges.
func TestEventMatchesSteppedDAMQ(t *testing.T) {
	assertEventMatchesStepped(t, "event-vs-stepped-damq", eventRunOpts{
		cfg: Config{K: 4, VCs: 2, BufFlits: 2, SharedBufFlits: 16, SharedBufCap: 12,
			NewArb: func() sched.Scheduler { return core.New() }},
		spec:     "stall(port=2,at=3,dur=120)",
		bursts:   []int64{0, 4000, 8000},
		perBurst: 12,
		run:      10_000,
		drain:    6_000,
	})
}

// TestFaultWindowInsideIdleGapNoOp pins the time-skip edge case this
// PR exists for: a fault window that opens AND closes entirely inside
// a skipped idle gap is a strict no-op. The event run must be
// byte-identical to the stepped oracle (SetTimeSkip(false)) — and the
// window must not cost a single stepped cycle: the run with the
// gap-internal windows steps exactly as many cycles as a clean run.
func TestFaultWindowInsideIdleGapNoOp(t *testing.T) {
	o := eventRunOpts{
		cfg: Config{K: 4, VCs: 2, BufFlits: 4,
			NewArb: func() sched.Scheduler { return core.New() }},
		// Both windows open and close inside the idle gap between the
		// burst draining (well before cycle 1000) and cycle 10000.
		spec:     "stall(port=1,at=3000,dur=1000);freeze(router=5,at=4200,dur=300)",
		bursts:   []int64{0, 10_000},
		perBurst: 8,
		run:      11_000,
		drain:    5_000,
	}
	o.stepped = true
	oracle, _ := eventRun(t, o)
	if oracle.latN == 0 || oracle.inFlight != 0 {
		t.Fatalf("scenario degenerate: %d samples, %d in flight", oracle.latN, oracle.inFlight)
	}
	o.stepped = false
	faulted, faultedSkipped := eventRun(t, o)
	if faultedSkipped == 0 {
		t.Fatal("event core never skipped with a fault window in the gap")
	}
	assertArtifactsEqual(t, "gap-window-vs-stepped", oracle, faulted, false)
	if a, b := oracle.obs.Counters["noc.cycles"], faulted.obs.Counters["noc.cycles"]; a != b {
		t.Errorf("obs cycle counters diverge: stepped %d, event %d", a, b)
	}
	// Same run without the windows: identical artifacts AND identical
	// telemetry — the no-op windows must not add one stepped cycle,
	// one router compute, or one visited cell.
	o.spec = ""
	clean, cleanSkipped := eventRun(t, o)
	assertArtifactsEqual(t, "gap-window-vs-clean", clean, faulted, true)
	if cleanSkipped != faultedSkipped {
		t.Errorf("skipped-cycle counts diverge: clean %d, windowed %d (windows inside an idle gap cost stepped cycles)",
			cleanSkipped, faultedSkipped)
	}
}

// wedgeRun wedges a mesh quietly — a permanent output stall strands a
// worm with nothing runnable and no event pending — and drains with a
// watchdog attached. Returns the watchdog trip cycle (-1 = never
// tripped), the wait-graph dump captured at the trip, whether the
// drain claimed success, the final cycle, and the skipped count.
func wedgeRun(t *testing.T, stepped bool) (trip int64, dump string, drained bool, cycle, skipped int64) {
	t.Helper()
	m, err := NewMesh(Config{K: 4, VCs: 2, BufFlits: 4,
		NewArb: func() sched.Scheduler { return core.New() }})
	if err != nil {
		t.Fatal(err)
	}
	m.SetStepped(stepped)
	spec, err := fault.Parse("stall(router=5,port=1,at=5)")
	if err != nil {
		t.Fatal(err)
	}
	m.InstallFaults(fault.New(spec, 3))
	wd := check.NewWatchdog(200)
	m.WatchProgress(wd)
	trip = -1
	m.SetOnWedged(func(c int64) {
		trip = c
		dump = FormatWaitGraph(m.WaitGraph(c), 8)
	})
	// One packet that delivers cleanly (advancing the watchdog clock)
	// and one that wedges against router 5's permanently stalled east
	// output.
	m.SendAt(0, m.NodeID(0, 0), m.NodeID(1, 0), 3)
	m.SendAt(0, m.NodeID(0, 1), m.NodeID(3, 1), 3)
	drained = m.Drain(3_000)
	return trip, dump, drained, m.Cycle(), m.Skipped()
}

// TestDrainWedgedQuietTripsWatchdog closes the watchdog/time-skip
// blind spot: a wedged-but-quiet network (in-flight flits, nothing
// runnable, no event pending) used to be jumped straight to the
// horizon, silently degrading the deadlock diagnostic to "Drain
// returned false". Event-driven Drain must now trip the watchdog at
// the exact cycle a stepped run would, fire the OnWedged hook with a
// non-empty channel-wait dump, and only then skip to the horizon.
func TestDrainWedgedQuietTripsWatchdog(t *testing.T) {
	sTrip, sDump, sDrained, sCycle, sSkipped := wedgeRun(t, true)
	if sDrained {
		t.Fatal("stepped oracle drained a permanently wedged network")
	}
	if sTrip < 0 {
		t.Fatal("stepped oracle never tripped the watchdog")
	}
	if sSkipped != 0 {
		t.Fatalf("stepped oracle skipped %d cycles", sSkipped)
	}
	eTrip, eDump, eDrained, eCycle, eSkipped := wedgeRun(t, false)
	if eDrained {
		t.Fatal("event-driven Drain drained a permanently wedged network")
	}
	if eSkipped == 0 {
		t.Fatal("event-driven Drain never skipped: the wedged-quiet tail was stepped literally")
	}
	if eTrip != sTrip {
		t.Errorf("watchdog trip cycles diverge: stepped %d, event %d", sTrip, eTrip)
	}
	if eCycle != sCycle {
		t.Errorf("final cycles diverge: stepped %d, event %d", sCycle, eCycle)
	}
	for name, dump := range map[string]string{"stepped": sDump, "event": eDump} {
		if dump == "" || strings.Contains(dump, "no blocked channels") {
			t.Errorf("%s run tripped without a channel-wait dump: %q", name, dump)
		}
	}
	if eDump != sDump {
		t.Errorf("wait-graph dumps diverge:\nstepped:\n%s\nevent:\n%s", sDump, eDump)
	}
}

// TestRunHorizonClamp pins the int64 overflow guard in Run's horizon
// arithmetic: Run(math.MaxInt64) must clamp to HorizonCap instead of
// wrapping cycle+n negative — while still releasing and delivering
// scheduled traffic on the way, and terminating in O(events), not
// O(cycles).
func TestRunHorizonClamp(t *testing.T) {
	m, err := NewMesh(Config{K: 3, VCs: 2, BufFlits: 4,
		NewArb: func() sched.Scheduler { return core.New() }})
	if err != nil {
		t.Fatal(err)
	}
	m.SendAt(1_000_000, 0, 5, 3)
	m.Run(math.MaxInt64)
	if m.Cycle() != HorizonCap {
		t.Fatalf("Run(MaxInt64) ended at cycle %d, want HorizonCap %d", m.Cycle(), HorizonCap)
	}
	if m.Latency.N() != 1 || m.InFlight() != 0 {
		t.Fatalf("far-future packet not delivered: %d samples, %d in flight", m.Latency.N(), m.InFlight())
	}
	// Idempotent at the cap: a second maximal run must not wrap, step,
	// or move the clock.
	m.Run(math.MaxInt64)
	if m.Cycle() != HorizonCap {
		t.Fatalf("second Run(MaxInt64) moved the clock to %d", m.Cycle())
	}
}

// TestDrainHorizonClamp pins the same guard in Drain: a permanently
// wedged network drained with maxCycles == math.MaxInt64 must land
// exactly on HorizonCap and report failure — no overflow, no negative
// horizons, no cycle-by-cycle crawl. A send scheduled beyond the
// horizon must simply never release.
func TestDrainHorizonClamp(t *testing.T) {
	m, err := NewMesh(Config{K: 3, VCs: 2, BufFlits: 4,
		NewArb: func() sched.Scheduler { return core.New() }})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := fault.Parse("stall(router=4,port=1,at=0)")
	if err != nil {
		t.Fatal(err)
	}
	m.InstallFaults(fault.New(spec, 3))
	m.SendAt(0, m.NodeID(0, 1), m.NodeID(2, 1), 3)
	m.SendAt(math.MaxInt64-3, 0, 1, 1)
	if m.Drain(math.MaxInt64) {
		t.Fatal("Drain claimed success on a wedged network")
	}
	if m.Cycle() != HorizonCap {
		t.Fatalf("Drain(MaxInt64) ended at cycle %d, want HorizonCap %d", m.Cycle(), HorizonCap)
	}
	if m.InFlight() != 1 {
		t.Fatalf("in flight = %d, want the one wedged packet", m.InFlight())
	}
	if m.Skipped() == 0 {
		t.Fatal("Drain reached the horizon without skipping: O(cycles), not O(events)")
	}
}

// meshEventSeeds and meshEventTileSeeds are FuzzMeshEventOracle's
// seed corpus. The last two plain seeds pick explicit 1x1 (every
// commit crosses a boundary) and 2x2 (uneven edge tiles on K=3)
// tilings, but carry one or two packets, too few to keep two tiles
// busy at once. The tile seeds take the same headers with a burst of
// six 6-flit packets across the mesh; TestMeshEventOracleTileSeedsFanOut
// requires each of them to fan out over the pool.
var (
	meshEventSeeds = [][]byte{
		{0x03, 0x10, 0x08, 0x04, 0x02, 0x30, 0x00, 0x01, 0x53, 0x22, 0x90, 0x07},
		{0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xff, 0x00, 0xff, 0x00, 0xff},
		{0x05, 0x20, 0x00, 0x07, 0x01, 0x10, 0x00, 0x10, 0x20, 0x30, 0x40, 0x50},
		{0x03, 0x10, 0x08, 0x04, 0x02, 0x30, 0x01, 0x53, 0x22, 0x90, 0x07, 0x11},
		{0x05, 0x20, 0x00, 0x07, 0x01, 0x10, 0x02, 0x10, 0x20, 0x30, 0x40, 0x50},
	}
	meshEventTileSeeds = [][]byte{
		{0x03, 0x10, 0x08, 0x04, 0x02, 0x30, 0x01,
			0x00, 0x08, 0x05, 0x00, 0x80, 0x05, 0x00, 0x26, 0x05,
			0x00, 0x62, 0x05, 0x00, 0x17, 0x05, 0x00, 0x71, 0x05},
		{0x05, 0x20, 0x00, 0x07, 0x01, 0x10, 0x02,
			0x00, 0x08, 0x05, 0x00, 0x80, 0x05, 0x00, 0x26, 0x05,
			0x00, 0x62, 0x05, 0x00, 0x17, 0x05, 0x00, 0x71, 0x05},
	}
)

// FuzzMeshEventOracle feeds arbitrary burst scripts AND
// arbitrarily-windowed stall/freeze faults to event-driven and
// stepped Run/Drain and requires byte-identical delivery logs — a
// coverage-guided search for a window placement whose dormancy
// analysis skips a cycle that mattered. hdr[6] picks the commit tile
// edge (0 = auto), so the search also covers every tiling of the K=3
// mesh, 1x1 boundary-only through 3x3 single-tile. The event run
// steps on a 2-worker pool at a fan-out grain of one router, so the
// production path (event core, tiled parallel commit) is checked
// against the serial stepped oracle. Run with
// `go test -fuzz FuzzMeshEventOracle ./internal/noc`.
func FuzzMeshEventOracle(f *testing.F) {
	for _, seed := range append(meshEventSeeds, meshEventTileSeeds...) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) { meshEventOracle(t, data) })
}

// TestMeshEventOracleTileSeedsFanOut pins that FuzzMeshEventOracle's
// tile corpus reaches the parallel commit: each tile seed's event run
// must fan out over the pool at least once.
func TestMeshEventOracleTileSeedsFanOut(t *testing.T) {
	for i, seed := range meshEventTileSeeds {
		if n := meshEventOracle(t, seed); n == 0 {
			t.Errorf("tile seed %d never fanned out over the pool", i)
		}
	}
}

// meshEventOracle is one FuzzMeshEventOracle case; it returns the
// event run's noc.fanout_cycles.
func meshEventOracle(t *testing.T, data []byte) int64 {
	t.Helper()
	if len(data) < 7 {
		return 0
	}
	if len(data) > 96 {
		data = data[:96]
	}
	hdr, script := data[:7], data[7:]
	tile := int(hdr[6] % 4) // 0 = auto, else explicit 1..3
	var specs []string
	if hdr[0]%4 != 0 {
		// dur==0 is a permanent stall: the wedged network must still
		// agree between modes, including the horizon landing.
		s := fmt.Sprintf("stall(router=%d,port=%d,at=%d", hdr[0]%9, 1+int(hdr[1]%4), int64(hdr[1])*16)
		if dur := int64(hdr[2]) * 8; dur > 0 {
			s += fmt.Sprintf(",dur=%d", dur)
		}
		specs = append(specs, s+")")
	}
	if hdr[3]%4 != 0 {
		specs = append(specs, fmt.Sprintf("freeze(router=%d,at=%d,dur=%d)",
			hdr[3]%9, int64(hdr[4])*16, 1+int64(hdr[5])*8))
	}
	faultSpec := strings.Join(specs, ";")
	run := func(stepped bool) ([]delivRec, int64, int, int64) {
		m, err := NewMesh(Config{K: 3, VCs: 2, BufFlits: 2, Tile: tile,
			NewArb: func() sched.Scheduler { return core.New() }})
		if err != nil {
			t.Fatal(err)
		}
		m.SetStepped(stepped)
		reg := obs.NewRegistry()
		m.RegisterObs(reg)
		if !stepped {
			p := exec.NewPool(2)
			defer p.Close()
			pooled(m, p)
		}
		if faultSpec != "" {
			spec, err := fault.Parse(faultSpec)
			if err != nil {
				t.Fatal(err)
			}
			m.InstallFaults(fault.New(spec, 11))
		}
		var log []delivRec
		for id := range m.sinks {
			id := id
			m.sinks[id].OnFlit = func(fl flit.Flit, vc int, cycle int64) {
				log = append(log, delivRec{node: id, flow: fl.Flow, seq: fl.Seq,
					vc: vc, kind: fl.Kind, pkt: fl.PktID, cycle: cycle})
			}
		}
		at := int64(0)
		for i := 0; i+2 < len(script); i += 3 {
			at += int64(script[i]) * 4 // gaps up to ~1000 cycles
			src := int(script[i+1]>>4) % m.Nodes()
			dst := int(script[i+1]&0xf) % m.Nodes()
			if src == dst {
				dst = (dst + 1) % m.Nodes()
			}
			m.SendAt(at, src, dst, 1+int(script[i+2]%6))
		}
		m.Run(at + 1)
		m.Drain(20_000)
		return log, m.Cycle(), m.InFlight(), reg.Counter("noc.fanout_cycles").Value()
	}
	wantLog, wantCycle, wantInFlight, _ := run(true)
	gotLog, gotCycle, gotInFlight, fanouts := run(false)
	if wantCycle != gotCycle {
		t.Fatalf("final cycles diverge: stepped %d, event %d (faults %q)", wantCycle, gotCycle, faultSpec)
	}
	if wantInFlight != gotInFlight {
		t.Fatalf("in-flight counts diverge: stepped %d, event %d (faults %q)", wantInFlight, gotInFlight, faultSpec)
	}
	if len(wantLog) != len(gotLog) {
		t.Fatalf("delivery counts diverge: stepped %d, event %d (faults %q)", len(wantLog), len(gotLog), faultSpec)
	}
	for i := range wantLog {
		if wantLog[i] != gotLog[i] {
			t.Fatalf("delivery %d diverges: stepped %+v, event %+v (faults %q)", i, wantLog[i], gotLog[i], faultSpec)
		}
	}
	return fanouts
}
