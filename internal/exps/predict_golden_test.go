package exps

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

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

// TestFullReportDeterminism: the quick report renders byte-identical
// documents on repeated runs in one process and at another shard count.
func TestFullReportDeterminism(t *testing.T) {
	render := func() string {
		t.Helper()
		doc, err := FullReport(QuickReportConfig(1))
		if err != nil {
			t.Fatal(err)
		}
		return doc
	}
	first, second := render(), render()
	if first != second {
		t.Fatal("second render differs from the first")
	}
	prev := xen.DefaultShards()
	t.Cleanup(func() { xen.SetDefaultShards(prev) })
	xen.SetDefaultShards(2)
	if render() != first {
		t.Fatal("render at 2 shards differs from 1 shard")
	}
}
