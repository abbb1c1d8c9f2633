package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"virtover/internal/cloudscale"
	"virtover/internal/core"
	"virtover/internal/exps"
	"virtover/internal/obs"
)

// report-paper: one caller in a closed loop runs the full reproduction
// report. Every report uses a seed the process has not run yet, so the
// warm-prefix cache (keyed by seed) is as cold for it as for a fresh
// report CLI run. The seeds come from a pool whose report digests are
// pinned in pins.json; --seed picks the order.

// reportSetups is how many set-up reports run before the timed loop.
const reportSetups = 3

func reportConfig(b *bench, seed int64) exps.ReportConfig {
	if b.tiny {
		cfg := exps.QuickReportConfig(seed)
		cfg.SamplesPerRun = 4
		cfg.PredictionDuration = 10
		cfg.PlacementRepeats = 1
		cfg.PlacementDuration = 20
		return cfg
	}
	return exps.PaperReportConfig(seed)
}

// reportSeeds returns the pool seeds in the order --seed picks.
func reportSeeds(b *bench) []int64 {
	pool := reportPool(b.tiny)
	out := make([]int64, len(pool))
	for i, j := range rand.New(rand.NewSource(b.seed)).Perm(len(pool)) {
		out[i] = pool[j]
	}
	return out
}

// seedCycle hands out seeds in order, wrapping around the pool. By the
// time a seed comes round again the LRU has evicted its prefixes: a
// paper-size report builds 15 of them and the cache keeps 64.
type seedCycle struct {
	seeds []int64
	next  int
}

func (c *seedCycle) take() int64 {
	s := c.seeds[c.next%len(c.seeds)]
	c.next++
	return s
}

// reportDigest hashes a report with its Figure 7-9 blocks put in figure
// order, and reports whether they arrived out of order. FullReportContext
// emits those blocks in map-iteration order, so the raw bytes of one seed
// vary from run to run.
func reportDigest(rep string) (digest string, outOfOrder bool) {
	lines := strings.SplitAfter(rep, "\n")
	type block struct {
		fig   int
		lines []string
	}
	var (
		blocks     []block
		first, end = -1, -1
	)
	for i := 0; i < len(lines); i++ {
		l := lines[i]
		if !strings.HasPrefix(l, "Figure ") || !strings.Contains(l, "RUBiS") {
			continue
		}
		n, err := strconv.Atoi(strings.Fields(l)[1])
		if err != nil {
			continue
		}
		if first < 0 {
			first = i
		}
		bl := block{fig: n}
		for ; i < len(lines); i++ {
			bl.lines = append(bl.lines, lines[i])
			if lines[i] == "\n" {
				break
			}
		}
		blocks = append(blocks, bl)
		end = i + 1
	}
	sorted := sort.SliceIsSorted(blocks, func(i, j int) bool { return blocks[i].fig < blocks[j].fig })
	sort.Slice(blocks, func(i, j int) bool { return blocks[i].fig < blocks[j].fig })
	h := sha256.New()
	if first < 0 {
		first, end = len(lines), len(lines)
	}
	for _, l := range lines[:first] {
		h.Write([]byte(l))
	}
	for _, bl := range blocks {
		for _, l := range bl.lines {
			h.Write([]byte(l))
		}
	}
	for _, l := range lines[end:] {
		h.Write([]byte(l))
	}
	return hex.EncodeToString(h.Sum(nil)), !sorted || len(blocks) != 3
}

// reportRun is one timed report.
type reportRun struct {
	seed       int64
	dur        time.Duration
	allocBytes uint64
	digest     string
	outOfOrder bool
}

func runOneReport(b *bench, seed int64) (reportRun, error) {
	a0 := totalAlloc()
	t0 := time.Now()
	rep, err := exps.FullReportContext(context.Background(), reportConfig(b, seed))
	r := reportRun{seed: seed, dur: time.Since(t0), allocBytes: totalAlloc() - a0}
	if err != nil {
		return r, fmt.Errorf("report seed %d: %w", seed, err)
	}
	r.digest, r.outOfOrder = reportDigest(rep)
	return r, nil
}

// checkReport compares a report's digest with the pinned one.
func checkReport(b *bench, r reportRun) bool {
	want := reportPin(b.tiny, r.seed)
	return want != "" && r.digest == want
}

func measureReport(b *bench) error {
	seeds := &seedCycle{seeds: reportSeeds(b)}
	_, setupS, err := setups(reportSetups, func() (reportRun, error) {
		r, err := runOneReport(b, seeds.take())
		if err == nil && !checkReport(b, r) {
			err = fmt.Errorf("set-up report seed %d: digest %s does not match the pin", r.seed, r.digest)
		}
		return r, err
	}, func(reportRun) {})
	if err != nil {
		return err
	}

	var (
		durs, allocs     []float64
		mismatch, misord int
	)
	heap := startHeapPeak()
	t0 := time.Now()
	for time.Since(t0) < b.dur || b.attempted < 3 {
		b.attempted++
		r, err := runOneReport(b, seeds.take())
		heap.opDone()
		if err != nil {
			b.failed++
			fmt.Fprintf(b.out, "error %v\n", err)
			continue
		}
		if !checkReport(b, r) {
			b.failed++
			mismatch++
			fmt.Fprintf(b.out, "report seed %d digest %s does not match the pin\n", r.seed, r.digest)
		}
		if r.outOfOrder {
			misord++
		}
		durs = append(durs, ms(r.dur))
		allocs = append(allocs, float64(r.allocBytes)/1e6)
	}
	b.check("report_digests", mismatch == 0 && len(durs) > 0,
		"%d of %d reports match their pinned digest (Figure 7-9 blocks compared as a set)", len(durs)-mismatch, len(durs))
	fmt.Fprintf(b.out, "metric report.fig789_order_mismatch %d count (of %d reports)\n", misord, len(durs))

	opMS := median(durs)
	b.set("setup_s", setupS, "s")
	b.set("op_ms", opMS, "ms")
	b.set("alloc_mb_per_op", median(allocs), "MB")
	fmt.Fprintf(b.out, "metric report_s %g s (median of %d reports)\n", opMS/1e3, len(durs))
	fmt.Fprintf(b.out, "metric fail_ratio %g ratio\n", float64(b.failed)/float64(b.attempted))
	return b.setMemory(heap)
}

// tracedReport alternates an untraced report (for report_s) with a
// traced replica of the report's sections, called one public function
// at a time in the report's own order, on a seed of its own.
func tracedReport(b *bench) error {
	seeds := &seedCycle{seeds: reportSeeds(b)}
	reg := obs.NewRegistry()
	steps := reg.Counter("engine_steps_total", "")
	hits := reg.Counter("fork_hits_total", "")
	misses := reg.Counter("fork_misses_total", "")

	var (
		reportMS, replicaMS, covered []float64
		allocs                       []float64
		stepsPer, hitRatio           []float64
		misord, bad                  int
	)
	sections := map[string][]float64{}
	t0 := time.Now()
	for time.Since(t0) < b.dur || len(reportMS) < 2 {
		b.attempted++
		r, err := runOneReport(b, seeds.take())
		if err != nil {
			return err
		}
		if !checkReport(b, r) {
			b.failed++
			bad++
		}
		if r.outOfOrder {
			misord++
		}
		reportMS = append(reportMS, ms(r.dur))
		allocs = append(allocs, float64(r.allocBytes)/1e6)

		exps.SetObservability(reg)
		s0, h0, m0 := steps.Value(), hits.Value(), misses.Value()
		b.attempted++
		wall, secs, err := reportReplica(b, reportConfig(b, seeds.take()))
		exps.SetObservability(nil)
		if err != nil {
			return err
		}
		replicaMS = append(replicaMS, ms(wall))
		var sum float64
		for name, d := range secs {
			sections[name] = append(sections[name], ms(d))
			sum += ms(d)
		}
		covered = append(covered, sum)
		stepsPer = append(stepsPer, float64(steps.Value()-s0))
		h, m := float64(hits.Value()-h0), float64(misses.Value()-m0)
		hitRatio = append(hitRatio, h/max(h+m, 1))
	}
	b.check("traced_report_digests", bad == 0, "%d untraced reports off their pin", bad)

	rep := median(reportMS)
	b.set("report_s", rep/1e3, "s")
	for _, name := range reportSections {
		b.set(name+"_ms", median(sections[name]), "ms")
	}
	b.set("report.alloc_mb_per_op", median(allocs), "MB")
	b.set("report.coverage_ratio", median(covered)/rep, "ratio")
	b.set("report.fig789_order_mismatch", float64(misord), "count")
	b.set("report.trace_overhead_ratio", median(replicaMS)/rep, "ratio")
	b.set("xen.engine_steps", median(stepsPer), "count")
	b.set("xen.fork_hit_ratio", median(hitRatio), "ratio")
	return nil
}

// reportSections are the spans of the report replica, in report order.
var reportSections = []string{
	"exps.micro", "exps.model_fit", "exps.prediction", "exps.placement",
	"exps.robustness", "exps.isolation", "exps.hetero", "exps.scaling",
	"exps.mitigation", "exps.admission", "core.coefficient_cis",
}

// reportReplica makes the calls FullReportContext makes, with the same
// arguments and in the same order, each section inside a span. It returns
// the replica's wall time and each section's duration.
func reportReplica(b *bench, cfg exps.ReportConfig) (time.Duration, map[string]time.Duration, error) {
	ctx := context.Background()
	tr := b.spans
	seed, spr := cfg.Seed, cfg.SamplesPerRun
	secs := map[string]time.Duration{}
	root := tr.start("report.replica", -1, 0)
	sec := func(name string, fn func(id int) error) error {
		d, err := tr.timed(name, root, fn)
		secs[name] = d
		return err
	}
	call := func(name string, parent int, fn func() error) error {
		_, err := tr.timed(name, parent, func(int) error { return fn() })
		return err
	}

	var model *core.Model
	steps := []struct {
		name string
		fn   func(id int) error
	}{
		{"exps.micro", func(id int) error {
			for _, n := range []int{1, 2, 4} {
				if err := call("exps.MicroFigureContext", id, func() error {
					_, err := exps.MicroFigureContext(ctx, n, seed, spr)
					return err
				}); err != nil {
					return err
				}
			}
			return call("exps.Figure5Context", id, func() error {
				_, err := exps.Figure5Context(ctx, seed, spr)
				return err
			})
		}},
		{"exps.model_fit", func(int) error {
			var err error
			model, err = exps.FitModelContext(ctx, seed, spr, core.FitOptions{})
			return err
		}},
		{"exps.prediction", func(id int) error {
			for _, f := range []struct{ fig, sets int }{{7, 1}, {8, 2}, {9, 3}} {
				fig, sets := f.fig, f.sets
				if err := call("exps.PredictionExperimentOpts", id, func() error {
					_, err := exps.PredictionExperimentOpts(ctx, model, exps.PredictionOptions{
						Sets: sets, Duration: cfg.PredictionDuration,
						Seed: seed + int64(fig), WarmupSteps: cfg.WarmupSteps,
					})
					return err
				}); err != nil {
					return err
				}
			}
			return nil
		}},
		{"exps.placement", func(int) error {
			pcfg := exps.DefaultPlacementConfig(seed + 41)
			pcfg.Repeats = cfg.PlacementRepeats
			pcfg.Duration = cfg.PlacementDuration
			_, err := exps.PlacementExperimentContext(ctx, model, pcfg)
			return err
		}},
		{"exps.robustness", func(int) error {
			_, err := exps.RobustnessExperiment(seed+51, spr, 0.08)
			return err
		}},
		{"exps.isolation", func(int) error {
			_, err := exps.IsolationExperiment(seed+61, spr, core.FitOptions{})
			return err
		}},
		{"exps.hetero", func(int) error {
			_, err := exps.HeteroExperiment(seed+71, spr, core.FitOptions{})
			return err
		}},
		{"exps.scaling", func(int) error {
			_, err := exps.ScalingExperiment(exps.DefaultScalingConfig(seed + 81))
			return err
		}},
		{"exps.mitigation", func(int) error {
			_, err := exps.MitigationExperiment(model, exps.MitigationConfig{
				Controller: true, Policy: cloudscale.VOA, Duration: 120, Seed: seed + 91,
			})
			return err
		}},
		{"exps.admission", func(int) error {
			_, err := exps.AdmissionExperiment(model, exps.AdmissionConfig{Arrivals: 10, DwellSeconds: 15, Seed: seed + 95})
			return err
		}},
		{"core.coefficient_cis", func(id int) error {
			var single []core.Sample
			if err := call("exps.TrainingCorpus", id, func() error {
				var err error
				single, _, err = exps.TrainingCorpus(seed, spr)
				return err
			}); err != nil {
				return err
			}
			return call("core.CoefficientCIs", id, func() error {
				_, err := core.CoefficientCIs(single, 100, 0.90, seed+99)
				return err
			})
		}},
	}
	for _, s := range steps {
		if err := sec(s.name, s.fn); err != nil {
			tr.end(root)
			return 0, nil, fmt.Errorf("replica seed %d: %s: %w", seed, s.name, err)
		}
	}
	return tr.end(root), secs, nil
}
