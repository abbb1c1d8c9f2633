package exps

import (
	"strings"
	"testing"
)

func TestQuickReportCoversEverything(t *testing.T) {
	cfg := QuickReportConfig(3)
	// Trim further for test speed.
	cfg.SamplesPerRun = 8
	cfg.PredictionDuration = 20
	cfg.PlacementRepeats = 2
	cfg.PlacementDuration = 30
	doc, err := FullReport(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{
		"# Virtualization-overhead reproduction report",
		"Table I", "Table II", "Table III",
		"Figure 2(a)", "Figure 3(b)", "Figure 4(e)", "Figure 5(b)",
		"matrix a", "matrix o",
		"Figure 7", "Figure 8", "Figure 9",
		"Figure 10", "VOA", "VOU",
		"OLS vs LMS", "Workload isolation", "Heterogeneous",
		"Elastic scaling", "Hotspot mitigation", "bootstrap",
	} {
		if !strings.Contains(doc, frag) {
			t.Errorf("report missing %q", frag)
		}
	}
	if len(doc) < 5000 {
		t.Errorf("report suspiciously short: %d bytes", len(doc))
	}
}

func TestReportWithoutExtensions(t *testing.T) {
	cfg := QuickReportConfig(5)
	cfg.SamplesPerRun = 8
	cfg.PredictionDuration = 15
	cfg.PlacementRepeats = 1
	cfg.PlacementDuration = 20
	cfg.Extensions = false
	doc, err := FullReport(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(doc, "Extensions beyond the paper") {
		t.Error("extensions section should be absent")
	}
	if !strings.Contains(doc, "Figure 10") {
		t.Error("core sections must remain")
	}
}

// TestReportFigure789Order: the trace-driven prediction blocks render in
// figure order on every run, not in map iteration order.
func TestReportFigure789Order(t *testing.T) {
	cfg := QuickReportConfig(5)
	cfg.SamplesPerRun = 8
	cfg.PredictionDuration = 15
	cfg.PlacementRepeats = 1
	cfg.PlacementDuration = 20
	cfg.Extensions = false
	for run := 0; run < 3; run++ {
		doc, err := FullReport(cfg)
		if err != nil {
			t.Fatal(err)
		}
		last := -1
		for _, block := range []string{"Figure 7 (1 RUBiS", "Figure 8 (2 RUBiS", "Figure 9 (3 RUBiS"} {
			at := strings.Index(doc, block)
			if at < 0 {
				t.Fatalf("report missing %q", block)
			}
			if at < last {
				t.Fatalf("run %d: %q rendered before the preceding figure", run, block)
			}
			last = at
		}
	}
}

func TestReportConfigs(t *testing.T) {
	q := QuickReportConfig(1)
	p := PaperReportConfig(1)
	if q.SamplesPerRun >= p.SamplesPerRun {
		t.Error("quick config should be smaller than paper config")
	}
	if p.SamplesPerRun != 120 || p.PredictionDuration != 600 {
		t.Errorf("paper config should mirror the paper: %+v", p)
	}
}
