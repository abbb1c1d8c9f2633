// Package rubis simulates the RUBiS auction-site workload of the paper's
// evaluation (Section VI): a web-server front-end VM and a database
// back-end VM, loaded by a closed-loop population of emulated clients
// (300-700 simultaneous clients, Figure 6 topology).
//
// Each tier implements xen.Source. Per-request resource demands are
// calibrated so that the web tier is bandwidth-intensive and more loaded
// than the database tier (the asymmetry behind the paper's PM1-vs-PM2
// prediction-error discussion). The web tier observes its VM's achieved
// CPU allocation and degrades throughput when the VM is starved, which is
// what makes overhead-unaware placement visibly hurt performance in the
// Figure 10 experiment.
package rubis

import (
	"sync"

	"virtover/internal/simrand"
	"virtover/internal/xen"
)

// Profile is the per-request resource cost of the two tiers. All rates are
// per request.
type Profile struct {
	// ThinkTime is the closed-loop client think time in seconds, and
	// BaseResp the uncontended request response time in seconds: offered
	// throughput = clients / (ThinkTime + BaseResp).
	ThinkTime, BaseResp float64

	WebCPUPerReq      float64 // % VCPU per req/s on the web tier
	WebMemMB          float64 // web tier resident memory
	WebClientKbPerReq float64 // response bytes to the external client, Kb
	WebQueryKbPerReq  float64 // query bytes to the DB tier, Kb

	DBCPUPerReq     float64 // % VCPU per req/s on the DB tier
	DBMemMB         float64 // DB tier resident memory
	DBIOPerReq      float64 // blocks per request on the DB tier
	DBReplyKbPerReq float64 // reply bytes back to the web tier, Kb

	// JitterRel is the relative demand jitter (request mix variation).
	JitterRel float64
}

// DefaultProfile calibrates the browsing mix used for the prediction
// experiments (Figures 7-9): at 700 clients the web tier stays under ~55%
// CPU so that even three co-located web VMs (plus Dom0's network-processing
// CPU) do not saturate a PM, matching the paper's small prediction errors.
func DefaultProfile() Profile {
	return Profile{
		ThinkTime: 6.0,
		BaseResp:  0.1,

		WebCPUPerReq:      0.40,
		WebMemMB:          150,
		WebClientKbPerReq: 3.5,
		WebQueryKbPerReq:  1.0,

		DBCPUPerReq:     0.22,
		DBMemMB:         190,
		DBIOPerReq:      0.12,
		DBReplyKbPerReq: 3.0,

		JitterRel: 0.01,
	}
}

// HeavyProfile calibrates the bidding mix used in the provisioning
// experiment (Figure 10): heavier dynamic content per request, so a web VM
// serving 500 clients needs ~65% CPU and suffers visibly when co-located
// with CPU hogs on an overcommitted PM.
func HeavyProfile() Profile {
	p := DefaultProfile()
	p.WebCPUPerReq = 0.80
	p.DBCPUPerReq = 0.35
	return p
}

// Config wires one RUBiS application instance.
type Config struct {
	Profile Profile
	// Clients gives the emulated client population at time t.
	Clients func(t float64) float64
	// WebVM and DBVM are the cluster names of the two tier VMs; the web
	// tier addresses its DB flows to DBVM and vice versa.
	WebVM, DBVM string
	// Seed drives demand jitter.
	Seed int64
}

// ConstClients returns a fixed client population.
func ConstClients(n float64) func(float64) float64 {
	return func(float64) float64 { return n }
}

// RampClients linearly ramps the population from lo to hi over duration
// seconds, holding hi afterwards (the paper's ten-minute 300->700 ramp).
func RampClients(lo, hi, duration float64) func(float64) float64 {
	return func(t float64) float64 {
		if duration <= 0 || t >= duration {
			return hi
		}
		return lo + (hi-lo)*t/duration
	}
}

// App is one running RUBiS instance.
type App struct {
	cfg Config
	rng *simrand.Source

	webVM *xen.VM // bound after placement; nil means no feedback
	dbVM  *xen.VM

	// Last offered demands, for starvation feedback.
	lastWebCPUDemand float64
	lastDBCPUDemand  float64

	// Cumulative accounting.
	offeredReqs float64
	servedReqs  float64
	steps       int
	stepSeconds float64

	// The tiers' demands for the step at time stepT. Each tier reads the
	// other's demand through the starvation feedback, so the first Demand
	// call of a step computes both, in the order the engine samples the
	// two VMs, and the other tier's call returns its share. A sharded
	// engine samples the tiers from two goroutines at once; mu serializes
	// them, and the result does not depend on which one comes first.
	mu      sync.Mutex
	stepped bool
	stepT   float64
	web, db xen.Demand
}

// New creates an application instance. Step seconds default to 1 (the
// engine default).
func New(cfg Config) *App {
	if cfg.Clients == nil {
		cfg.Clients = ConstClients(0)
	}
	return &App{cfg: cfg, rng: simrand.New(cfg.Seed), stepSeconds: 1}
}

// BindVMs attaches the placed VMs so the app can observe achieved
// allocations. Optional; without it the app assumes full allocation.
func (a *App) BindVMs(web, db *xen.VM) {
	a.webVM = web
	a.dbVM = db
}

// OfferedThroughput is the closed-loop offered request rate at time t.
func (a *App) OfferedThroughput(t float64) float64 {
	c := a.cfg.Clients(t)
	if c <= 0 {
		return 0
	}
	return c / (a.cfg.Profile.ThinkTime + a.cfg.Profile.BaseResp)
}

// starvation returns the fraction of demanded CPU the tiers actually
// received in the previous step (1 when unbound or not yet started).
func (a *App) starvation() float64 {
	f := 1.0
	if a.webVM != nil && a.lastWebCPUDemand > 1 {
		if got := a.webVM.Util().CPU / a.lastWebCPUDemand; got < f {
			f = got
		}
	}
	if a.dbVM != nil && a.lastDBCPUDemand > 1 {
		if got := a.dbVM.Util().CPU / a.lastDBCPUDemand; got < f {
			f = got
		}
	}
	if f > 1 {
		f = 1
	}
	if f < 0 {
		f = 0
	}
	return f
}

// WebSource returns the web tier's demand source. Attach it to exactly
// one VM: the first Demand call of a step, of either tier, advances the
// app's throughput accounting.
func (a *App) WebSource() xen.Source {
	return xen.SourceFunc(func(t float64) xen.Demand {
		web, _ := a.demands(t)
		return web
	})
}

// DBSource returns the database tier's demand source.
func (a *App) DBSource() xen.Source {
	return xen.SourceFunc(func(t float64) xen.Demand {
		_, db := a.demands(t)
		return db
	})
}

// demands returns both tiers' demands for the step at time t, computing
// them on the step's first call. The tier the engine samples second sees
// the first tier's demand of this step, exactly as in a serial step.
func (a *App) demands(t float64) (web, db xen.Demand) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.stepped || t != a.stepT {
		if a.webVM != nil && a.dbVM != nil && xen.SampledBefore(a.dbVM, a.webVM) {
			a.db = a.dbDemand(t)
			a.web = a.webDemand(t)
		} else {
			a.web = a.webDemand(t)
			a.db = a.dbDemand(t)
		}
		a.stepped, a.stepT = true, t
	}
	return a.web, a.db
}

func (a *App) webDemand(t float64) xen.Demand {
	p := a.cfg.Profile
	x := a.OfferedThroughput(t)
	x = a.rng.Jitter(x, p.JitterRel)
	if x < 0 {
		x = 0
	}

	// Throughput accounting: requests served this step are limited by
	// the CPU the tiers actually got last step.
	served := x * a.starvation()
	a.offeredReqs += x * a.stepSeconds
	a.servedReqs += served * a.stepSeconds
	a.steps++

	a.lastWebCPUDemand = p.WebCPUPerReq * x
	return xen.Demand{
		CPU:   a.lastWebCPUDemand,
		MemMB: p.WebMemMB,
		Flows: []xen.Flow{
			{DstVM: "", Kbps: p.WebClientKbPerReq * served},        // to clients
			{DstVM: a.cfg.DBVM, Kbps: p.WebQueryKbPerReq * served}, // to DB
		},
	}
}

func (a *App) dbDemand(t float64) xen.Demand {
	p := a.cfg.Profile
	x := a.OfferedThroughput(t) * a.starvation()
	a.lastDBCPUDemand = p.DBCPUPerReq * x
	return xen.Demand{
		CPU:      a.lastDBCPUDemand,
		MemMB:    p.DBMemMB,
		IOBlocks: p.DBIOPerReq * x,
		Flows: []xen.Flow{
			{DstVM: a.cfg.WebVM, Kbps: p.DBReplyKbPerReq * x},
		},
	}
}

// Stats summarizes the run so far.
type Stats struct {
	OfferedReqs float64 // total requests clients offered
	ServedReqs  float64 // total requests actually served
	Steps       int
	// MeanThroughput is served requests per second.
	MeanThroughput float64
	// TotalTime estimates the wall time needed to serve the offered
	// workload at the achieved rate (the paper's Figure 10b metric).
	TotalTime float64
}

// Stats returns cumulative performance statistics.
func (a *App) Stats() Stats {
	s := Stats{OfferedReqs: a.offeredReqs, ServedReqs: a.servedReqs, Steps: a.steps}
	if a.steps > 0 {
		elapsed := float64(a.steps) * a.stepSeconds
		s.MeanThroughput = a.servedReqs / elapsed
		if s.MeanThroughput > 0 {
			s.TotalTime = a.offeredReqs / s.MeanThroughput
		}
	}
	return s
}
