package exps

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"runtime"
	"testing"

	"virtover/internal/core"
	"virtover/internal/monitor"
	"virtover/internal/units"
	"virtover/internal/xen"
)

// bitsDigest hashes float64 bit patterns and strings into a hex digest, so
// a golden pins results to the last bit rather than to a rounded rendering.
type bitsDigest struct{ h hash.Hash }

func newBitsDigest() *bitsDigest { return &bitsDigest{h: sha256.New()} }

func (d *bitsDigest) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d *bitsDigest) f64s(vs ...float64) {
	d.u64(uint64(len(vs)))
	for _, v := range vs {
		d.u64(math.Float64bits(v))
	}
}

func (d *bitsDigest) str(s string) {
	d.u64(uint64(len(s)))
	d.h.Write([]byte(s))
}

func (d *bitsDigest) vec(v units.Vector) { d.f64s(v.CPU, v.Mem, v.IO, v.BW) }

func (d *bitsDigest) hex() string { return hex.EncodeToString(d.h.Sum(nil)) }

func predictionDigest(res []PredictionResult) string {
	d := newBitsDigest()
	for _, r := range res {
		d.u64(uint64(r.Clients))
		d.f64s(r.PM1CPU...)
		d.f64s(r.PM2CPU...)
		d.f64s(r.PM1BW...)
		d.f64s(r.PM2BW...)
	}
	return d.hex()
}

func seriesDigest(series [][]monitor.Measurement) string {
	d := newBitsDigest()
	for _, row := range series {
		d.u64(uint64(len(row)))
		for _, m := range row {
			d.f64s(m.Time)
			d.str(m.PM)
			names := m.GuestNames()
			d.u64(uint64(len(names)))
			for _, n := range names {
				d.str(n)
				d.vec(m.VMs[n])
			}
			d.vec(m.Dom0)
			d.f64s(m.HypervisorCPU)
			d.vec(m.Host)
		}
	}
	return d.hex()
}

// TestPredictionGolden pins the trace-driven prediction and the recorded
// RUBiS trace to the bit, at the default, disabled and a custom warm-up.
// A changed digest is a changed Figure 7-9 result or trace, not noise:
// the runs are deterministic at every shard count.
func TestPredictionGolden(t *testing.T) {
	m := fittedModel(t)
	for _, tc := range []struct {
		name   string
		warmup int
		want   string
	}{
		{"default", 0, "0664dd6a0faae881945631e637cda79f082e50696ea7b4f41572477675b05472"},
		{"none", -1, "a95f8d992e55a6a40aa328c1afd1e73f3c005f3e09f4694d1e3809965b5493d8"},
		{"warmup12", 12, "601cdd91e2db2b59a5885796900b085408771afdc39f5c6c0f58b077e1f0c282"},
	} {
		res, err := PredictionExperimentOpts(context.Background(), m, PredictionOptions{
			Sets: 2, Clients: []int{350, 600}, Duration: 25, Seed: 4242, WarmupSteps: tc.warmup,
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := predictionDigest(res); got != tc.want {
			t.Errorf("%s: prediction digest %s, want %s", tc.name, got, tc.want)
		}
	}

	series, err := RecordRUBiSTrace(2, 350, 25, 4242)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := seriesDigest(series), "2df37d1e20387872eee0700a04638f9d3c2a0a505a84ff96891f24fb5a8b0fc0"; got != want {
		t.Errorf("RecordRUBiSTrace digest %s, want %s", got, want)
	}
}

// quickReportSHA256 is the SHA-256 of FullReport(QuickReportConfig(1)).
// A changed digest is a changed report, not noise.
const quickReportSHA256 = "1490d6b2724744d16e12ec1a835c759c91b7a989c965a1b654ece41d3c370440"

// atProcs runs fn at GOMAXPROCS n and restores the previous value.
func atProcs(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// TestFullReportDeterminism pins the quick report to the byte at one and
// four workers (its campaign pools and per-target bootstraps gather in
// index order), repeated in one process and at another shard count; and
// holds the fanned-out hetero corpus, scaling policies and coefficient
// bootstrap to the bit at one worker against four.
func TestFullReportDeterminism(t *testing.T) {
	render := func() string {
		t.Helper()
		doc, err := FullReport(QuickReportConfig(1))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256([]byte(doc))
		return hex.EncodeToString(sum[:])
	}
	for _, procs := range []int{1, 4} {
		atProcs(procs, func() {
			if got := render(); got != quickReportSHA256 {
				t.Errorf("GOMAXPROCS %d: report SHA-256 %s, want %s", procs, got, quickReportSHA256)
			}
		})
	}
	prev := xen.DefaultShards()
	t.Cleanup(func() { xen.SetDefaultShards(prev) })
	xen.SetDefaultShards(2)
	if got := render(); got != quickReportSHA256 {
		t.Errorf("2 shards: report SHA-256 %s, want %s", got, quickReportSHA256)
	}

	single, _, err := TrainingCorpus(1, 15)
	if err != nil {
		t.Fatal(err)
	}
	extensions := func() string {
		t.Helper()
		d := newBitsDigest()
		hs, hm, err := HeteroCorpus(71, 10)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range append(hs, hm...) {
			d.u64(uint64(s.N))
			d.u64(uint64(s.ExtraVCPUs))
			d.vec(s.VMSum)
			d.f64s(s.Dom0CPU, s.HypCPU)
			d.vec(s.PM)
		}
		sres, err := ScalingExperiment(DefaultScalingConfig(81))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range sres {
			d.u64(uint64(r.Policy))
			d.f64s(r.ViolationRate, r.MeanReservation, r.MeanDemand, r.Efficiency)
		}
		cis, err := core.CoefficientCIs(single, 100, 0.90, 99)
		if err != nil {
			t.Fatal(err)
		}
		for _, ci := range cis {
			coefCIDigest(d, ci)
		}
		return d.hex()
	}
	var one, four string
	atProcs(1, func() { one = extensions() })
	atProcs(4, func() { four = extensions() })
	if one != four {
		t.Errorf("hetero corpus, scaling and coefficient CIs differ at one and four workers: %s vs %s", one, four)
	}
}
