package noc

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/flit"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sched"
)

// delivRec is one ejected flit as the sinks saw it — the byte-level
// artifact the determinism tests compare across stepping modes.
type delivRec struct {
	node, flow, seq, vc int
	kind                flit.Kind
	pkt                 int64
	cycle               int64
}

// runArtifacts is everything observable about one scenario run.
// Floats are compared exactly (==): the determinism contract is
// byte-identity, not tolerance.
type runArtifacts struct {
	log      []delivRec
	packets  []int64
	flits    []int64
	cycle    int64
	inFlight int
	latN     int64
	latMean  float64
	latVar   float64
	latMin   float64
	latMax   float64
	obs      obs.Snapshot
	// fanouts is the run's noc.fanout_cycles, moved out of obs: how
	// often a cycle fanned out depends on the worker count by design,
	// so assertArtifactsEqual compares the artifacts without it.
	fanouts int64
}

// takeFanouts moves noc.fanout_cycles from the obs snapshot into
// a.fanouts and returns a.
func (a runArtifacts) takeFanouts() runArtifacts {
	a.fanouts = a.obs.Counters["noc.fanout_cycles"]
	delete(a.obs.Counters, "noc.fanout_cycles")
	return a
}

// runStepVariant drives one fixed traffic scenario — warm phase plus
// bounded drain — stepping the mesh however configure chooses, and
// returns the run's artifacts. tile is Config.Tile (0 = auto).
func runStepVariant(t *testing.T, torus bool, tile int, faultSpec string, configure func(m *Mesh) (step func(), cleanup func())) runArtifacts {
	t.Helper()
	cfg := Config{K: 4, VCs: 2, BufFlits: 4, Tile: tile,
		NewArb: func() sched.Scheduler { return core.New() }}
	if torus {
		cfg.Torus = true
		cfg.VCs = 4
	}
	m, err := NewMesh(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	m.RegisterObs(reg)
	if faultSpec != "" {
		spec, err := fault.Parse(faultSpec)
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
	step, cleanup := configure(m)
	if cleanup != nil {
		defer cleanup()
	}
	inj := NewInjector(m, 0.15, Uniform{Nodes: m.Nodes()}, rng.NewUniform(1, 6), rng.New(7))
	for c := 0; c < 2500; c++ {
		inj.Step()
		step()
	}
	// Bounded drain (fault scenarios can wedge packets permanently;
	// the wedge itself must then be identical across variants).
	for i := 0; i < 6000 && m.InFlight() > 0; i++ {
		step()
	}
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
	}.takeFanouts()
}

// pooled attaches p to m with the fan-out grain lowered to one active
// router per worker, so a K=4 mesh fans out whenever two tiles are
// busy and the parallel commit stays under test.
func pooled(m *Mesh, p *exec.Pool) {
	m.SetPool(p)
	m.grain = 1
}

// stepVariants are the stepping modes every scenario is run under.
// quiescent marks modes whose obs telemetry must match the baseline
// exactly (full iteration computes all K² routers by design, so its
// noc.router_computes differs while every simulation artifact is
// still identical — that is precisely the skipped-routers-are-no-ops
// claim). fansOut marks modes that must fan out at least once on a
// multi-tile mesh.
var stepVariants = []struct {
	name      string
	quiescent bool
	fansOut   bool
	configure func(m *Mesh) (func(), func())
}{
	{"serial-quiescent", true, false, func(m *Mesh) (func(), func()) {
		return m.Step, nil
	}},
	{"full-iteration", false, false, func(m *Mesh) (func(), func()) {
		m.SetFullIteration(true)
		return m.Step, nil
	}},
	{"router-fullscan", false, false, func(m *Mesh) (func(), func()) {
		m.SetFullScan(true)
		return m.Step, nil
	}},
	{"pool-1", true, false, func(m *Mesh) (func(), func()) {
		p := exec.NewPool(1)
		pooled(m, p)
		return m.Step, p.Close
	}},
	{"pool-2", true, true, func(m *Mesh) (func(), func()) {
		p := exec.NewPool(2)
		pooled(m, p)
		return m.Step, p.Close
	}},
	{"pool-8", true, true, func(m *Mesh) (func(), func()) {
		p := exec.NewPool(8)
		pooled(m, p)
		return m.Step, p.Close
	}},
	// pool-alternating regression-tests shard scratch reuse across
	// worker-count changes: the same mesh is stepped by pools of three
	// different sizes (and serially), switching every step mid-run. The
	// tile scratch is keyed to tiles, not workers, so no rebuild — and
	// no stale bound — may ever leak between pool sizes.
	{"pool-alternating", true, true, func(m *Mesh) (func(), func()) {
		pools := []*exec.Pool{exec.NewPool(2), exec.NewPool(8), nil, exec.NewPool(3)}
		n := 0
		step := func() {
			pooled(m, pools[n%len(pools)])
			n++
			m.Step()
		}
		cleanup := func() {
			for _, p := range pools {
				if p != nil {
					p.Close()
				}
			}
		}
		return step, cleanup
	}},
}

func assertArtifactsEqual(t *testing.T, name string, base, got runArtifacts, compareObs bool) {
	t.Helper()
	base.fanouts, got.fanouts = 0, 0
	if !compareObs {
		base.obs, got.obs = obs.Snapshot{}, obs.Snapshot{}
	}
	if reflect.DeepEqual(base, got) {
		return
	}
	switch {
	case !reflect.DeepEqual(base.log, got.log):
		i := 0
		for i < len(base.log) && i < len(got.log) && base.log[i] == got.log[i] {
			i++
		}
		t.Errorf("%s: delivery logs diverge at index %d (len %d vs %d)", name, i, len(base.log), len(got.log))
	case !reflect.DeepEqual(base.obs, got.obs):
		t.Errorf("%s: obs snapshots differ:\n  base %+v\n  got  %+v", name, base.obs, got.obs)
	default:
		base.log, got.log = nil, nil
		t.Errorf("%s: artifacts differ:\n  base %+v\n  got  %+v", name, base, got)
	}
}

// assertFannedOut fails the test if a run never fanned a cycle out
// over its pool: its artifacts then say nothing about the parallel
// commit.
func assertFannedOut(t *testing.T, name string, a runArtifacts) {
	t.Helper()
	if a.fanouts == 0 {
		t.Errorf("%s: never fanned out over the pool; the parallel commit went untested", name)
	}
}

// TestMeshStepParallelMatchesSerial pins the tentpole contract: the
// quiescent serial path, the full-iteration oracle, and pooled
// stepping at 1/2/8 workers all produce byte-identical artifacts — every
// ejected flit (node, vc, kind, cycle), every counter, and the exact
// Welford latency accumulation, whose float sums would expose any
// reordering of commit effects.
func TestMeshStepParallelMatchesSerial(t *testing.T) {
	base := runStepVariant(t, false, 0, "", stepVariants[0].configure)
	if base.latN == 0 || base.inFlight != 0 {
		t.Fatalf("scenario degenerate: %d packets, %d in flight", base.latN, base.inFlight)
	}
	for _, v := range stepVariants[1:] {
		got := runStepVariant(t, false, 0, "", v.configure)
		assertArtifactsEqual(t, v.name, base, got, v.quiescent)
		if v.fansOut {
			assertFannedOut(t, v.name, got)
		}
	}
}

// TestMeshTileConfigsMatchAcrossWorkers sweeps explicit commit tile
// edges — 1x1 (every effect is a boundary effect), the 2x2 default,
// 3x3 (uneven edge tiles on K=4), and 4x4 (one tile, everything
// interior) — and requires each tiling to produce byte-identical
// artifacts across every stepping mode and worker count. The tile edge
// is part of the simulated configuration, so identity is pinned per
// tiling, at any parallelism.
func TestMeshTileConfigsMatchAcrossWorkers(t *testing.T) {
	for _, tile := range []int{1, 2, 3, 4} {
		base := runStepVariant(t, false, tile, "", stepVariants[0].configure)
		if base.latN == 0 || base.inFlight != 0 {
			t.Fatalf("tile=%d: scenario degenerate: %d packets, %d in flight", tile, base.latN, base.inFlight)
		}
		for _, v := range stepVariants[1:] {
			name := fmt.Sprintf("tile=%d/%s", tile, v.name)
			got := runStepVariant(t, false, tile, "", v.configure)
			assertArtifactsEqual(t, name, base, got, v.quiescent)
			if v.fansOut && tile < 4 { // tile=4 is one tile: nothing to fan out
				assertFannedOut(t, name, got)
			}
		}
	}
}

// TestMeshStepParallelTorusFaults is the adversarial variant: a torus
// (dateline VC switching) under link stalls, flit drops, corruption,
// and a router freeze. Faults exercise the quiescence edge cases —
// frozen routers must keep accruing occupancy while active, dropped
// tails wedge downstream worms that must stay registered forever —
// and the per-(router,port) fault rng streams must land identically
// regardless of compute scheduling.
func TestMeshStepParallelTorusFaults(t *testing.T) {
	const spec = "stall(port=1,at=100,dur=200);drop(router=5,port=1,p=0.05);corrupt(router=10,p=0.05);freeze(router=6,at=300,dur=400)"
	base := runStepVariant(t, true, 0, spec, stepVariants[0].configure)
	if base.latN == 0 {
		t.Fatal("scenario degenerate: nothing delivered")
	}
	for _, v := range stepVariants[1:] {
		got := runStepVariant(t, true, 0, spec, v.configure)
		assertArtifactsEqual(t, v.name, base, got, v.quiescent)
		if v.fansOut {
			assertFannedOut(t, v.name, got)
		}
	}
}

// TestMeshTileDeterminism64TorusFaults is the at-scale adversarial
// pin for tiled stepping: a 64x64 torus (4096 routers, 64 commit
// tiles at the 8x8 default) under link stalls and frozen routers,
// driven by bursty scheduled traffic through the Run/Drain event core.
// Every combination of worker count (serial, 1, 2, 4, 8) and stepping
// mode (literal stepped oracle vs event-driven time skipping) must
// produce byte-identical artifacts — deliveries, latency floats, and
// final in-flight state, including whatever the faults wedge.
func TestMeshTileDeterminism64TorusFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("64x64 adversarial sweep skipped in -short mode")
	}
	o := eventRunOpts{
		cfg: Config{K: 64, VCs: 4, BufFlits: 2, Torus: true,
			NewArb: func() sched.Scheduler { return core.New() }},
		spec: "stall(port=1,at=100,dur=400);stall(router=1300,port=3,at=600,dur=300);" +
			"freeze(router=2080,at=200,dur=500);freeze(router=70,at=900,dur=200)",
		bursts:   []int64{0, 1500},
		perBurst: 120,
		run:      3_000,
		drain:    20_000,
	}
	o.stepped, o.grain = true, 1
	base, _ := eventRun(t, o)
	if base.latN == 0 {
		t.Fatal("scenario degenerate: nothing delivered")
	}
	variants := []struct {
		name    string
		stepped bool
		workers int
	}{
		{"stepped-w1", true, 1},
		{"stepped-w2", true, 2},
		{"stepped-w4", true, 4},
		{"stepped-w8", true, 8},
		{"event-serial", false, 0},
		{"event-w8", false, 8},
	}
	for _, v := range variants {
		o.stepped, o.workers = v.stepped, v.workers
		got, _ := eventRun(t, o)
		assertArtifactsEqual(t, v.name, base, got, v.stepped)
		if v.workers > 1 {
			assertFannedOut(t, v.name, got)
		}
	}
}

// TestQuiescenceSkipsIdleRouters pins the point of the active set: a
// single worm crossing a big mesh must cost a handful of router
// computes per cycle, not K².
func TestQuiescenceSkipsIdleRouters(t *testing.T) {
	m, err := NewMesh(Config{K: 8, VCs: 2, BufFlits: 4,
		NewArb: func() sched.Scheduler { return core.New() }})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	m.RegisterObs(reg)
	m.Send(0, m.Nodes()-1, 3)
	if !m.Drain(2000) {
		t.Fatal("packet not delivered")
	}
	cycles := reg.Counter("noc.cycles").Value()
	computes := reg.Counter("noc.router_computes").Value()
	if cycles == 0 {
		t.Fatal("no cycles recorded")
	}
	// A 3-flit worm occupies a bounded window of the 14-hop path; the
	// idle ~60 routers must not be computed.
	if computes > cycles*8 {
		t.Errorf("router computes %d over %d cycles: active set not pruning (full iteration would be %d)",
			computes, cycles, cycles*int64(m.Nodes()))
	}
	if hw := reg.Gauge("noc.active_routers_high_water").Value(); hw == 0 || hw > 10 {
		t.Errorf("active-set high water %d, want 1..10", hw)
	}
	if got := reg.Gauge("noc.active_routers").Value(); got != 0 {
		t.Errorf("active routers after drain = %d, want 0", got)
	}
}

// TestMeshFanOutCrossesGrain steps a run whose active-router count
// rises past the production fan-out threshold (two workers' worth of
// stepGrain) during each burst and falls back below it as the burst
// drains, so the mesh switches between inline and fanned-out cycles
// both ways, on a 2-worker pool at the production grain. Its artifacts
// must be byte-identical to a pool-less run.
func TestMeshFanOutCrossesGrain(t *testing.T) {
	o := eventRunOpts{
		cfg: Config{K: 32, VCs: 2, BufFlits: 4,
			NewArb: func() sched.Scheduler { return core.New() }},
		bursts:   []int64{0, 3000},
		perBurst: 1500,
		run:      6_000,
		drain:    20_000,
	}
	base, _ := eventRun(t, o)
	if base.latN == 0 || base.inFlight != 0 {
		t.Fatalf("scenario degenerate: %d packets, %d in flight", base.latN, base.inFlight)
	}
	o.workers = 2
	got, _ := eventRun(t, o)
	assertArtifactsEqual(t, "pool-2-production-grain", base, got, true)
	stepped := got.obs.Counters["noc.cycles"] - got.obs.Counters["noc.cycles_skipped"]
	t.Logf("fanned out on %d of %d stepped cycles (high water %d active)", got.fanouts, stepped,
		got.obs.Gauges["noc.active_routers_high_water"])
	// Each run starts and ends with an idle mesh, stepped inline, so
	// any fanned-out cycle means the count crossed the grain up and
	// back down.
	if got.fanouts == 0 || got.fanouts >= stepped {
		t.Errorf("fanned out on %d of %d stepped cycles; the run must cross the grain both ways", got.fanouts, stepped)
	}
}
