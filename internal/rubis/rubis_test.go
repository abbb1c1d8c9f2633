package rubis

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"virtover/internal/xen"
)

func TestOfferedThroughput(t *testing.T) {
	a := New(Config{Profile: DefaultProfile(), Clients: ConstClients(500)})
	// 500 / (6 + 0.1) = 81.97 req/s.
	if got := a.OfferedThroughput(0); math.Abs(got-81.97) > 0.1 {
		t.Errorf("offered = %v, want ~82 req/s at 500 clients", got)
	}
	idle := New(Config{Profile: DefaultProfile(), Clients: ConstClients(0)})
	if idle.OfferedThroughput(0) != 0 {
		t.Error("zero clients should offer zero")
	}
}

func TestRampClients(t *testing.T) {
	f := RampClients(300, 700, 600)
	if got := f(0); got != 300 {
		t.Errorf("ramp(0) = %v, want 300", got)
	}
	if got := f(300); got != 500 {
		t.Errorf("ramp(300) = %v, want 500", got)
	}
	if got := f(600); got != 700 {
		t.Errorf("ramp(600) = %v, want 700", got)
	}
	if got := f(9999); got != 700 {
		t.Errorf("ramp(9999) = %v, want 700", got)
	}
	z := RampClients(300, 700, 0)
	if got := z(0); got != 700 {
		t.Errorf("zero-duration ramp = %v, want 700", got)
	}
}

func TestWebDemandShape(t *testing.T) {
	p := DefaultProfile()
	p.JitterRel = 0
	a := New(Config{Profile: p, Clients: ConstClients(500), WebVM: "web", DBVM: "db"})
	d := a.WebSource().Demand(0)
	x := 500 / (p.ThinkTime + p.BaseResp)
	if math.Abs(d.CPU-p.WebCPUPerReq*x) > 1e-9 {
		t.Errorf("web CPU = %v, want %v", d.CPU, p.WebCPUPerReq*x)
	}
	if d.MemMB != p.WebMemMB {
		t.Errorf("web mem = %v", d.MemMB)
	}
	if len(d.Flows) != 2 {
		t.Fatalf("web flows = %d, want 2 (client + DB)", len(d.Flows))
	}
	if d.Flows[0].DstVM != "" {
		t.Errorf("first flow should target the external client, got %q", d.Flows[0].DstVM)
	}
	if d.Flows[1].DstVM != "db" {
		t.Errorf("second flow should target the DB VM, got %q", d.Flows[1].DstVM)
	}
}

func TestDBDemandShape(t *testing.T) {
	p := DefaultProfile()
	p.JitterRel = 0
	a := New(Config{Profile: p, Clients: ConstClients(500), WebVM: "web", DBVM: "db"})
	d := a.DBSource().Demand(0)
	x := 500 / (p.ThinkTime + p.BaseResp)
	if math.Abs(d.CPU-p.DBCPUPerReq*x) > 1e-9 {
		t.Errorf("db CPU = %v, want %v", d.CPU, p.DBCPUPerReq*x)
	}
	if math.Abs(d.IOBlocks-p.DBIOPerReq*x) > 1e-9 {
		t.Errorf("db IO = %v, want %v", d.IOBlocks, p.DBIOPerReq*x)
	}
	if len(d.Flows) != 1 || d.Flows[0].DstVM != "web" {
		t.Errorf("db flows = %v, want one flow to web", d.Flows)
	}
}

func TestWebTierLessLoadedThanCapAt700(t *testing.T) {
	// Figures 7-9 need three co-located web VMs to fit the guest pool:
	// per-VM CPU at 700 clients must stay under ~63%.
	p := DefaultProfile()
	x := 700 / (p.ThinkTime + p.BaseResp)
	if cpu := p.WebCPUPerReq * x; cpu > 63 {
		t.Errorf("web CPU at 700 clients = %v, want < 63 (3x must fit 190 pool)", cpu)
	}
	// And the web tier must be more loaded than the DB tier (the paper's
	// PM1 > PM2 asymmetry).
	if p.DBCPUPerReq >= p.WebCPUPerReq {
		t.Error("DB tier must be lighter than web tier")
	}
}

func TestHeavyProfileHeavier(t *testing.T) {
	d, h := DefaultProfile(), HeavyProfile()
	if h.WebCPUPerReq <= d.WebCPUPerReq || h.DBCPUPerReq <= d.DBCPUPerReq {
		t.Error("HeavyProfile must cost more CPU per request")
	}
	// Figure 10 needs a web VM at 500 clients to demand ~65% CPU.
	x := 500 / (h.ThinkTime + h.BaseResp)
	if cpu := h.WebCPUPerReq * x; cpu < 60 || cpu > 72 {
		t.Errorf("heavy web CPU at 500 clients = %v, want ~65", cpu)
	}
}

// End to end on the simulator: unconstrained placement serves everything.
func TestFullServiceWhenUncontended(t *testing.T) {
	cl := xen.NewCluster()
	p1 := cl.AddPM("pm1")
	p2 := cl.AddPM("pm2")
	web := cl.AddVM(p1, "web", 256)
	db := cl.AddVM(p2, "db", 256)

	prof := DefaultProfile()
	prof.JitterRel = 0
	app := New(Config{Profile: prof, Clients: ConstClients(500), WebVM: "web", DBVM: "db"})
	app.BindVMs(web, db)
	web.SetSource(app.WebSource())
	db.SetSource(app.DBSource())

	calib := xen.DefaultCalibration()
	calib.ProcessNoiseRel = 0
	e := xen.NewEngine(cl, calib, 1)
	e.Advance(120)

	st := app.Stats()
	if st.Steps != 120 {
		t.Fatalf("steps = %d, want 120", st.Steps)
	}
	ratio := st.ServedReqs / st.OfferedReqs
	if ratio < 0.99 {
		t.Errorf("served/offered = %v, want ~1 when uncontended", ratio)
	}
	if math.Abs(st.MeanThroughput-82) > 2 {
		t.Errorf("throughput = %v, want ~82 req/s", st.MeanThroughput)
	}
	// Total time to serve the offered load ~= elapsed time when healthy.
	if math.Abs(st.TotalTime-120) > 3 {
		t.Errorf("total time = %v, want ~120 s", st.TotalTime)
	}
}

// Starving the web VM with CPU hogs cuts throughput (the Figure 10
// mechanism).
func TestStarvationCutsThroughput(t *testing.T) {
	cl := xen.NewCluster()
	p1 := cl.AddPM("pm1")
	p2 := cl.AddPM("pm2")
	web := cl.AddVM(p1, "web", 256)
	db := cl.AddVM(p2, "db", 256)
	// Three CPU hogs co-located with the web tier.
	for _, n := range []string{"hog1", "hog2", "hog3"} {
		hog := cl.AddVM(p1, n, 256)
		hog.SetSource(xen.SourceFunc(func(float64) xen.Demand { return xen.Demand{CPU: 95} }))
	}

	prof := HeavyProfile()
	prof.JitterRel = 0
	app := New(Config{Profile: prof, Clients: ConstClients(500), WebVM: "web", DBVM: "db"})
	app.BindVMs(web, db)
	web.SetSource(app.WebSource())
	db.SetSource(app.DBSource())

	calib := xen.DefaultCalibration()
	calib.ProcessNoiseRel = 0
	e := xen.NewEngine(cl, calib, 1)
	e.Advance(120)

	st := app.Stats()
	ratio := st.ServedReqs / st.OfferedReqs
	if ratio > 0.95 {
		t.Errorf("served/offered = %v, want visible degradation under starvation", ratio)
	}
	if ratio < 0.3 {
		t.Errorf("served/offered = %v, implausibly low", ratio)
	}
	if st.TotalTime <= 125 {
		t.Errorf("total time = %v, want > elapsed when starved", st.TotalTime)
	}
}

func TestStatsZeroSteps(t *testing.T) {
	a := New(Config{Profile: DefaultProfile()})
	st := a.Stats()
	if st.MeanThroughput != 0 || st.TotalTime != 0 || st.Steps != 0 {
		t.Errorf("zero-run stats = %+v", st)
	}
}

func TestNilClientsDefaultsToZero(t *testing.T) {
	a := New(Config{Profile: DefaultProfile()})
	if a.OfferedThroughput(5) != 0 {
		t.Error("nil Clients should mean zero load")
	}
}

// The tiers feed each other's demand within a step, so a sharded engine
// that samples them from two goroutines must reproduce the serial step,
// whichever tier the engine samples first.
func TestShardedStepMatchesSerial(t *testing.T) {
	run := func(dbFirst bool, shards int) (Stats, []float64) {
		cl := xen.NewCluster()
		p1 := cl.AddPM("pm1")
		p2 := cl.AddPM("pm2")
		webPM, dbPM := p1, p2
		if dbFirst {
			webPM, dbPM = p2, p1
		}
		web := cl.AddVM(webPM, "web", 256)
		db := cl.AddVM(dbPM, "db", 256)
		for i, pm := range []*xen.PM{p1, p1, p2, p2} {
			hog := cl.AddVM(pm, fmt.Sprintf("hog%d", i+1), 256)
			hog.SetSource(xen.SourceFunc(func(float64) xen.Demand { return xen.Demand{CPU: 95} }))
		}
		app := New(Config{Profile: HeavyProfile(), Clients: ConstClients(600), WebVM: "web", DBVM: "db", Seed: 3})
		app.BindVMs(web, db)
		web.SetSource(app.WebSource())
		db.SetSource(app.DBSource())
		e := xen.NewEngine(cl, xen.DefaultCalibration(), 1)
		defer e.Close()
		e.SetShards(shards)
		var utils []float64
		for i := 0; i < 60; i++ {
			e.Advance(1)
			utils = append(utils, web.Util().CPU, db.Util().CPU)
		}
		return app.Stats(), utils
	}
	for _, dbFirst := range []bool{false, true} {
		st1, u1 := run(dbFirst, 1)
		st2, u2 := run(dbFirst, 2)
		if st1 != st2 || !reflect.DeepEqual(u1, u2) {
			t.Errorf("dbFirst=%v: 2-shard run diverges from the serial one", dbFirst)
		}
		if st1.ServedReqs >= st1.OfferedReqs {
			t.Errorf("dbFirst=%v: no starvation, the test exercises nothing", dbFirst)
		}
	}
}
