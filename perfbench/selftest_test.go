package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
)

// benchmarkFile is the subset of BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestMetricTableMatchesBenchmarkFile: perfbench's metric table and
// BENCHMARK.json declare the same metrics, units and directions.
func TestMetricTableMatchesBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	want := append(f.EndToEnd, f.PerLayer...)
	if len(want) != len(metricTable) {
		t.Fatalf("BENCHMARK.json declares %d metrics, perfbench %d", len(want), len(metricTable))
	}
	for i, m := range metricTable {
		got := declared{m.name, m.unit, m.better}
		if got != want[i] {
			t.Errorf("metric %d: perfbench %+v, BENCHMARK.json %+v", i, got, want[i])
		}
		if m.layer != (i >= len(f.EndToEnd)) {
			t.Errorf("metric %s is in the wrong list", m.name)
		}
	}
}

// TestSelfTest runs the tiny shape of every workload, untraced and
// traced, and checks that each declared metric is emitted with its unit
// and that the gate passes; then it perturbs one reference digest and
// checks that the gate trips.
func TestSelfTest(t *testing.T) {
	f := readBenchmarkFile(t)
	for _, w := range []string{"bulk_64k", "churn_10k", "fleet_sweep"} {
		t.Run(w, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				out, err := run(runConfig{workload: w, seed: 1, traced: traced, tiny: true, outDir: t.TempDir(), refs: loadRefs()})
				if err != nil {
					t.Fatal(err)
				}
				if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
					t.Errorf("traced=%v: correct=%v attempted=%d failed=%d", traced, out.Correct, out.Attempted, out.Failed)
				}
				decl := f.EndToEnd
				if traced {
					decl = f.PerLayer
				}
				if len(out.Metrics) != len(decl) {
					t.Errorf("traced=%v: %d metrics emitted, %d declared", traced, len(out.Metrics), len(decl))
				}
				for _, d := range decl {
					got, ok := out.Metrics[d.Name]
					if !ok {
						t.Errorf("traced=%v: metric %s not emitted", traced, d.Name)
					} else if got.Unit != d.Unit {
						t.Errorf("traced=%v: metric %s has unit %q, declared %q", traced, d.Name, got.Unit, d.Unit)
					}
				}
			}

			refs := loadRefs()
			prefix := w + "/tiny/seed=" // seed 1 runs simulation seed 2
			perturbed := false
			for k, v := range refs {
				if strings.HasPrefix(k, prefix+"2") && !perturbed {
					refs[k] = strings.Repeat("0", len(v))
					perturbed = true
				}
			}
			if !perturbed {
				t.Fatalf("no reference digest under %s2", prefix)
			}
			out, err := run(runConfig{workload: w, seed: 1, traced: true, tiny: true, outDir: t.TempDir(), refs: refs})
			if err != nil {
				t.Fatal(err)
			}
			if out.Correct || out.Failed == 0 || out.Metrics["error_rate"].Value <= 0 {
				t.Errorf("perturbed reference: correct=%v failed=%d error_rate=%v; want the gate to trip",
					out.Correct, out.Failed, out.Metrics["error_rate"].Value)
			}
		})
	}
}

func TestSelfTimesSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{ID: 2, Parent: 1, Name: "coord.dispatch", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "coord.dispatch", Start: 30, End: 70},
		{ID: 1, Parent: 0, Name: "client.sweep", Start: 0, End: 100},
	}
	self := selfTimes([][]span{spans})
	if got, want := self["client"], 40e-9; got < want*0.999 || got > want*1.001 {
		t.Errorf("client self time %g s, want %g s", got, want)
	}
	if got, want := self["coord"], 80e-9; got < want*0.999 || got > want*1.001 {
		t.Errorf("coord self time %g s, want %g s", got, want)
	}
}

// TestHeldOutSeed: a second seed gives different simulated outputs but
// the same metric names and workload shape.
func TestHeldOutSeed(t *testing.T) {
	refs := loadRefs()
	for _, key := range []string{"bulk_64k/full/seed=%d/none", "churn_10k/full/seed=%d", "fleet_sweep/full/seed=%d"} {
		a, b := refs[fmt.Sprintf(key, simSeed(1))], refs[fmt.Sprintf(key, simSeed(2))]
		if a == "" || a == b {
			t.Errorf("%s: seeds 1 and 2 give digests %q and %q, want two different ones", key, a, b)
		}
	}
	names := func(seed int64) []string {
		out, err := run(runConfig{workload: "bulk_64k", seed: seed, tiny: true, outDir: t.TempDir(), refs: refs})
		if err != nil {
			t.Fatal(err)
		}
		if !out.Correct || out.Attempted != 4 {
			t.Fatalf("seed %d: correct=%v attempted=%d, want 4 gated cells", seed, out.Correct, out.Attempted)
		}
		var ns []string
		for n := range out.Metrics {
			ns = append(ns, n)
		}
		slices.Sort(ns)
		return ns
	}
	if a, b := names(1), names(2); !slices.Equal(a, b) {
		t.Errorf("seeds 1 and 2 report different metrics: %v vs %v", a, b)
	}
}
