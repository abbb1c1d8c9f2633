package exps

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"virtover/internal/core"
	"virtover/internal/obs"
	"virtover/internal/workload"
)

// cancelClock builds an obs registry whose injected clock cancels ctx on
// its k-th reading. The engine reads the clock inside every instrumented
// step, so the cancellation lands mid-run at a step boundary the test can
// reason about: stepsAtCancel records the engine_steps_total value at the
// exact moment cancel() ran, making "aborts within one engine step"
// checkable without sleeps or timing assumptions.
type cancelClock struct {
	reg           *obs.Registry
	steps         *obs.Counter
	stepsAtCancel atomic.Int64
}

func newCancelClock(k int64, cancel context.CancelFunc) *cancelClock {
	c := &cancelClock{}
	c.stepsAtCancel.Store(-1)
	var calls atomic.Int64
	var once sync.Once
	c.reg = obs.NewRegistry(obs.WithClock(func() int64 {
		n := calls.Add(1)
		if n >= k {
			once.Do(func() {
				c.stepsAtCancel.Store(int64(c.steps.Value()))
				cancel()
			})
		}
		return n
	}))
	c.steps = c.reg.Counter("engine_steps_total", "simulation steps run")
	return c
}

// RunMicroContext must return within one engine step of cancellation: the
// step in progress when cancel() fires may finish, and no later step runs.
func TestRunMicroContextCancelsWithinOneStep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cc := newCancelClock(120, cancel)

	const samples = 2000
	_, _, err := RunMicroContext(ctx, MicroScenario{
		N: 1, Kind: workload.CPU, LevelIdx: 2,
		Samples: samples, Seed: 5, Obs: cc.reg,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled via errors.Is", err)
	}
	at := cc.stepsAtCancel.Load()
	if at < 0 {
		t.Fatal("cancel hook never fired; campaign finished before the clock count")
	}
	got := int64(cc.steps.Value())
	if got > at+1 {
		t.Errorf("engine ran %d steps, cancel fired at step count %d: more than one step after cancellation", got, at)
	}
	if got >= samples {
		t.Errorf("campaign ran to completion (%d steps) despite cancellation", got)
	}
}

// FitModelContext runs its training campaigns in parallel; on cancellation
// every in-flight engine may finish at most the step it is in, so the
// step total is bounded by stepsAtCancel plus one step per worker.
func TestFitModelContextCancelsWithinOneStep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cc := newCancelClock(200, cancel)

	SetObservability(cc.reg)
	defer SetObservability(nil)

	_, err := FitModelContext(ctx, 3, 60, core.FitOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled via errors.Is", err)
	}
	at := cc.stepsAtCancel.Load()
	if at < 0 {
		t.Fatal("cancel hook never fired; corpus finished before the clock count")
	}
	got := int64(cc.steps.Value())
	bound := at + int64(runtime.GOMAXPROCS(0))
	if got > bound {
		t.Errorf("engines ran %d steps, cancel fired at %d with %d workers: some engine ran more than one step after cancellation",
			got, at, runtime.GOMAXPROCS(0))
	}
}

// A pre-canceled context never reaches the engine at all.
func TestFitModelContextPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reg := obs.NewRegistry()
	steps := reg.Counter("engine_steps_total", "simulation steps run")
	SetObservability(reg)
	defer SetObservability(nil)
	if _, err := FitModelContext(ctx, 1, 10, core.FitOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := steps.Value(); n != 0 {
		t.Errorf("pre-canceled fit ran %d engine steps", n)
	}
}

// A paper-size report canceled once its extension studies have started
// returns "" and ctx.Err(), and every extension campaign in flight stops
// within one engine step: the cancel fires on the first instrumented step
// after the "extensions" section opens, inside the robustness study's
// campaign pool.
func TestFullReportContextCancelsInExtensions(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var (
		sections, steps *obs.Counter
		once            sync.Once
		stepsAtCancel   atomic.Int64
	)
	stepsAtCancel.Store(-1)
	reg := obs.NewRegistry(obs.WithClock(func() int64 {
		// tables, micro-benchmarks, model-fit, prediction, placement,
		// extensions: the sixth section opens the extension studies.
		if sections.Value() >= 6 {
			once.Do(func() {
				stepsAtCancel.Store(int64(steps.Value()))
				cancel()
			})
		}
		return 0
	}))
	sections = reg.Counter("report_sections_total", "report sections rendered")
	steps = reg.Counter("engine_steps_total", "simulation steps run")
	SetObservability(reg)
	defer SetObservability(nil)

	doc, err := FullReportContext(ctx, PaperReportConfig(2))
	if !errors.Is(err, context.Canceled) || doc != "" {
		t.Fatalf("got %d bytes, err %v; want \"\" and context.Canceled", len(doc), err)
	}
	at := stepsAtCancel.Load()
	if at < 0 {
		t.Fatal("cancel hook never fired: the report returned before its extensions")
	}
	got := int64(steps.Value())
	if bound := at + int64(runtime.GOMAXPROCS(0)); got > bound {
		t.Errorf("engines ran %d steps, cancel fired at %d with %d workers: a campaign outlived the cancellation by more than one step",
			got, at, runtime.GOMAXPROCS(0))
	}
}
