package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the smoke test checks the
// printed result against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestCatalogueMatchesBenchmarkFile keeps the metric tables in bench.go
// and the workload table in main.go in step with BENCHMARK.json.
func TestCatalogueMatchesBenchmarkFile(t *testing.T) {
	f := loadBenchmarkFile(t)
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in bench.go, %d in BENCHMARK.json", what, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s %d: bench.go has %+v, BENCHMARK.json %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", endToEnd, f.EndToEnd)
	same("per_layer", perLayer, f.PerLayer)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in main.go, %d in BENCHMARK.json", len(workloads), len(f.Workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: main.go has %s, BENCHMARK.json %s", i, workloads[i].name, w.Name)
		}
	}
}

// TestSmoke runs every workload at tiny size, untraced and traced, and
// checks that the result line is correct, names every metric of
// BENCHMARK.json with its unit, and that every correctness check ran.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	f := loadBenchmarkFile(t)
	checks := map[string][]string{
		"report-paper":   {"report_digests"},
		"sim-datacenter": {"trace_sha256"},
		"serve-learn":    {"serve_replies", "model_versions_monotonic", "drift_keeps_and_swaps"},
	}
	tracedChecks := []string{"traced_report_digests", "serve_replies", "model_versions_monotonic"}
	for _, w := range f.Workloads {
		for _, traced := range []string{"0", "1"} {
			t.Run(w.Name+"/trace"+traced, func(t *testing.T) {
				var out, errb bytes.Buffer
				code := run([]string{"--workload", w.Name, "--seed", "3", "--seconds", "1",
					"--trace", traced, "--tiny", "--spans", t.TempDir()}, &out, &errb)
				if code != 0 {
					t.Fatalf("exit %d: %s", code, errb.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("result correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
				}
				want, names := f.EndToEnd, checks[w.Name]
				if traced == "1" {
					want, names = f.PerLayer, tracedChecks
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: printed %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
					}
				}
				for _, c := range names {
					if !strings.Contains(out.String(), "check "+c+" ok") {
						t.Errorf("check %s did not run and pass\n%s", c, out.String())
					}
				}
			})
		}
	}
}
