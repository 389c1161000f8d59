package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// spec is the part of BENCHMARK.json the self-test compares against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	return s
}

// tinyN keeps every workload to a second or two.
const tinyN = 128

// TestWorkloadsTiny runs every workload at a tiny size, untraced and
// traced, and checks that its output checks pass and that it prints
// exactly the metrics BENCHMARK.json names, with the same units.
func TestWorkloadsTiny(t *testing.T) {
	sp := readSpec(t)
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	e2e := map[string]string{}
	for _, m := range sp.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	layer := map[string]string{}
	for _, m := range sp.PerLayer {
		layer[m.Name] = m.Unit
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: w.name, seed: 7, seconds: 1, trace: trace, n: tinyN, out: t.TempDir()}
			rep, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			res := rep.result(trace)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d: %v", w.name, trace, res.Correct, res.Attempted, res.Failed, rep.failures)
			}
			want := e2e
			if trace {
				want = layer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: printed %d metrics, BENCHMARK.json names %d", w.name, trace, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				got, ok := res.Metrics[name]
				if !ok || got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s printed as %+v (present %v), want unit %s", w.name, trace, name, got, ok, unit)
				}
			}
			if trace {
				if _, err := os.Stat(filepath.Join(cfg.out, "trace-"+w.name+"-seed7.json")); err != nil {
					t.Errorf("%s: no span file: %v", w.name, err)
				}
			}
		}
	}
}

// TestCountGuard checks that a second run of one seed reproduces the
// first run's exact counts, and that a count that differs from the
// recorded one fails the run.
func TestCountGuard(t *testing.T) {
	cfg := config{workload: "control-plane", seed: 3, seconds: 1, n: tinyN, out: t.TempDir()}
	for i := 0; i < 2; i++ {
		rep, err := run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res := rep.result(false); !res.Correct {
			t.Fatalf("run %d: %v", i, rep.failures)
		}
	}
	matches, err := filepath.Glob(filepath.Join(cfg.out, "counts-*.json"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("count record: %v %v", matches, err)
	}
	data, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	var counts map[string]int64
	if err := json.Unmarshal(data, &counts); err != nil {
		t.Fatal(err)
	}
	counts["sim.steps"]++
	data, _ = json.Marshal(counts)
	if err := os.WriteFile(matches[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.result(false).Correct {
		t.Fatal("a sim.steps count differing from the record did not fail the run")
	}
}

func TestPairAtDistinctAndDeterministic(t *testing.T) {
	for i := 0; i < 1000; i++ {
		s, u := pairAt(5, i, 7)
		s2, u2 := pairAt(5, i, 7)
		if s == u || s != s2 || u != u2 || s < 0 || s >= 7 || u < 0 || u >= 7 {
			t.Fatalf("pair %d: (%d,%d) then (%d,%d)", i, s, u, s2, u2)
		}
	}
}

func TestQuantile(t *testing.T) {
	s := samples{4, 1, 3, 2}
	if got := s.quantile(0.5); got != 2.5 {
		t.Errorf("median %v, want 2.5", got)
	}
	if got := s.quantile(1); got != 4 {
		t.Errorf("max %v, want 4", got)
	}
	if got := (samples{}).quantile(0.5); got != 0 {
		t.Errorf("empty %v, want 0", got)
	}
}
