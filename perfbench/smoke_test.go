package main

import (
	"encoding/json"
	"os"
	"testing"
)

type benchFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchFile(t *testing.T) benchFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestCatalogMatchesBenchmarkFile pins the metric lists printed by the
// program to BENCHMARK.json, name for name and unit for unit.
func TestCatalogMatchesBenchmarkFile(t *testing.T) {
	f := readBenchFile(t)
	check := func(kind string, declared []struct{ Name, Unit string }, printed []metricSpec) {
		if len(declared) != len(printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program prints %d", kind, len(declared), len(printed))
		}
		for i := range min(len(declared), len(printed)) {
			if declared[i].Name != printed[i].name || declared[i].Unit != printed[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)", kind, i,
					declared[i].Name, declared[i].Unit, printed[i].name, printed[i].unit)
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd)
	check("per_layer", f.PerLayer, perLayer)
	for _, w := range f.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s in BENCHMARK.json has no implementation", w.Name)
		}
	}
}

// TestSmokeAllWorkloads runs every workload at smoke-test size, untraced
// and traced, and checks that all of its checks pass and that every
// metric BENCHMARK.json names is printed with its unit.
func TestSmokeAllWorkloads(t *testing.T) {
	f := readBenchFile(t)
	host := readHost()
	for _, w := range f.Workloads {
		for _, traced := range []bool{false, true} {
			e := env{seed: 3, seconds: 0.5, small: true}
			res, problems, err := evaluate(w.Name, e, traced, t.TempDir(), host)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || len(problems) > 0 || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d problems=%v",
					w.Name, traced, res.Correct, res.Attempted, res.Failed, problems)
			}
			want := f.EndToEnd
			if traced {
				want = f.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics printed, want %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s printed as %+v, want unit %s", w.Name, traced, m.Name, got, m.Unit)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}
