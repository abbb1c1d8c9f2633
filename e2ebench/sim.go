package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math/rand"
	"time"

	"virtover/internal/monitor"
	"virtover/internal/sampling"
	"virtover/internal/trace"
	"virtover/internal/xen"
)

// sim-datacenter: one caller in a closed loop steps a 1000-PM fleet at
// the engine's default shard count, measured the paper's way (a 1 Hz
// monitor.Script chain) into the CSV trace writer over a SHA-256 hash.
// The trace digest after simPinSteps steps is pinned per fleet seed.

const (
	simVMsPerPM  = 5
	simFlowEvery = 8
	simSetups    = 3
)

func simPMs(b *bench) int {
	if b.tiny {
		return 20
	}
	return 1000
}

func simPinSteps(b *bench) int {
	if b.tiny {
		return 8
	}
	return 64
}

// simSeed picks the fleet seed from the pinned pool.
func simSeed(b *bench) int64 {
	pool := simPool(b.tiny)
	return pool[rand.New(rand.NewSource(b.seed)).Intn(len(pool))]
}

// countWriter counts the bytes it passes on.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// fleet is one built datacenter with the measured trace chain attached.
type fleet struct {
	e      *xen.Engine
	pms    int
	sum    hash.Hash
	bytes  *countWriter
	csv    *trace.CSVSink
	script monitor.Script
	detach func()
	steps  int
}

// newFleet builds the fleet, attaches script → CSV → SHA-256 and takes
// the first step, which builds the engine's layout.
func newFleet(b *bench, seed int64) (*fleet, error) {
	pms := simPMs(b)
	cl := xen.BuildDatacenter(xen.DatacenterSpec{PMs: pms, VMsPerPM: simVMsPerPM, Seed: seed, FlowEvery: simFlowEvery})
	f := &fleet{
		e:      xen.NewEngine(cl, xen.DefaultCalibration(), seed),
		pms:    pms,
		sum:    sha256.New(),
		script: monitor.Script{IntervalSteps: 1, Noise: monitor.DefaultNoise(), Seed: seed},
	}
	f.bytes = &countWriter{w: f.sum}
	f.csv = trace.NewCSVSink(f.bytes)
	if err := f.attach(f.csv); err != nil {
		f.e.Close()
		return nil, err
	}
	f.step()
	return f, nil
}

// attach replaces the fleet's sink chain with script → next.
func (f *fleet) attach(next sampling.Sink) error {
	if f.detach != nil {
		f.detach()
	}
	detach, err := f.script.Attach(f.e, nil, next)
	if err != nil {
		return fmt.Errorf("attach monitor script: %w", err)
	}
	f.detach = detach
	return nil
}

// attachBare replaces the chain with next alone, no monitor script.
func (f *fleet) attachBare(next sampling.Sink) {
	if f.detach != nil {
		f.detach()
	}
	f.e.AttachSink(next)
	f.detach = func() { f.e.DetachSink(next) }
}

func (f *fleet) step() time.Duration {
	t0 := time.Now()
	f.e.Advance(1)
	f.steps++
	return time.Since(t0)
}

// digest flushes the CSV writer and returns the trace's SHA-256 so far.
func (f *fleet) digest() (string, error) {
	if err := f.csv.Flush(); err != nil {
		return "", fmt.Errorf("flush trace: %w", err)
	}
	return hex.EncodeToString(f.sum.Sum(nil)), nil
}

func (f *fleet) close() {
	if f.detach != nil {
		f.detach()
	}
	f.e.Close()
}

func measureSim(b *bench) error {
	seed := simSeed(b)
	f, setupS, err := setups(simSetups, func() (*fleet, error) { return newFleet(b, seed) }, (*fleet).close)
	if err != nil {
		return err
	}
	defer f.close()

	var (
		durs    []float64
		elapsed time.Duration
		pinned  bool
	)
	pinAt := simPinSteps(b)
	heap := startHeapPeak()
	a0 := totalAlloc()
	for elapsed < b.dur || f.steps <= pinAt {
		d := f.step()
		heap.opDone()
		b.attempted++
		elapsed += d
		durs = append(durs, ms(d))
		if f.steps == pinAt {
			got, err := f.digest()
			if err != nil {
				return err
			}
			want := simPin(b.tiny, seed)
			pinned = got == want
			b.check("trace_sha256", pinned, "fleet seed %d, %d steps: got %s want %s", seed, pinAt, got, want)
			if !pinned {
				b.failed++
			}
		}
	}
	steps := len(durs)
	allocMB := float64(totalAlloc()-a0) / 1e6 / float64(steps)
	if err := f.csv.Flush(); err != nil {
		b.failed++
		return fmt.Errorf("trace writer: %w", err)
	}

	opMS := median(durs)
	b.set("setup_s", setupS, "s")
	b.set("op_ms", opMS, "ms")
	b.set("alloc_mb_per_op", allocMB, "MB")
	fmt.Fprintf(b.out, "metric sim_pm_steps_per_s %g 1/s (%d steps of %d PMs)\n",
		float64(steps*f.pms)/elapsed.Seconds(), steps, f.pms)
	fmt.Fprintf(b.out, "metric step_p99_ms %g ms\n", quantile(durs, 0.99))
	fmt.Fprintf(b.out, "metric trace.bytes_per_step %g B\n", float64(f.bytes.n)/float64(f.steps))
	fmt.Fprintf(b.out, "metric fail_ratio %g ratio\n", float64(b.failed)/float64(b.attempted))
	return b.setMemory(heap)
}

// noopSink counts what reaches it and does nothing else.
type noopSink struct{ samples int64 }

func (n *noopSink) Consume(sampling.Sample)           { n.samples++ }
func (n *noopSink) ConsumeBatch(bt []sampling.Sample) { n.samples += int64(len(bt)) }

// csvTimer wraps the CSV writer and times every call into it. The
// monitor hands it about one batch per PM, so a 1000-PM step makes over a
// thousand calls: only the calls of the first traced block are kept as
// spans (under the current step's span), which keeps the span file near
// a megabyte instead of tens.
type csvTimer struct {
	csv    *trace.CSVSink
	tr     *tracer // nil: time the calls, record no spans
	parent int
	busy   time.Duration
}

func (c *csvTimer) Consume(s sampling.Sample) {
	c.ConsumeBatch([]sampling.Sample{s})
}

func (c *csvTimer) ConsumeBatch(bt []sampling.Sample) {
	t0 := time.Now()
	id := c.tr.start("trace.CSVSink.ConsumeBatch", c.parent, 0)
	c.csv.ConsumeBatch(bt)
	c.tr.end(id)
	c.busy += time.Since(t0)
}

// tracedSim rotates four sink chains on one fleet, a block of steps each:
// engine → no-op; engine → script → no-op; engine → script → timed CSV
// writer; and the untraced engine → script → CSV writer. Differences
// between the blocks give the per-layer times.
func tracedSim(b *bench) error {
	f, err := newFleet(b, simSeed(b))
	if err != nil {
		return err
	}
	defer f.close()
	tr := b.spans
	const block = 10
	var (
		bare, meter, csvStep, csvBusy, plain []float64
		engineSink, meterSink                noopSink
		bareSteps, csvSteps                  int
		bytes0                               = f.bytes.n
		plainAlloc                           uint64
	)
	timer := &csvTimer{csv: f.csv}
	t0 := time.Now()
	for time.Since(t0) < b.dur || len(plain) < block {
		// Each block starts with an untimed step: the first step after a
		// re-attach sizes the new chain's buffers.
		f.attachBare(&engineSink)
		f.step()
		bareSteps++
		root := tr.start("sim.block.engine", -1, 0)
		for i := 0; i < block; i++ {
			d, _ := tr.timed("xen.Engine.Advance", root, func(int) error { f.step(); return nil })
			bare = append(bare, float64(d))
			bareSteps++
		}
		tr.end(root)

		if err := f.attach(&meterSink); err != nil {
			return err
		}
		f.step()
		root = tr.start("sim.block.meter", -1, 0)
		for i := 0; i < block; i++ {
			d, _ := tr.timed("monitor.Script.step", root, func(int) error { f.step(); return nil })
			meter = append(meter, float64(d))
		}
		tr.end(root)

		if err := f.attach(timer); err != nil {
			return err
		}
		timer.tr = nil
		f.step()
		csvSteps++
		if len(csvBusy) == 0 {
			timer.tr = tr
		}
		root = tr.start("sim.block.csv", -1, 0)
		for i := 0; i < block; i++ {
			timer.busy = 0
			d, _ := tr.timed("trace.chain.step", root, func(id int) error {
				timer.parent = id
				f.step()
				return nil
			})
			csvStep = append(csvStep, float64(d))
			csvBusy = append(csvBusy, float64(timer.busy))
			csvSteps++
		}
		tr.end(root)

		if err := f.attach(f.csv); err != nil {
			return err
		}
		f.step()
		csvSteps++
		a0 := totalAlloc()
		for i := 0; i < block; i++ {
			plain = append(plain, float64(f.step()))
			csvSteps++
		}
		plainAlloc += totalAlloc() - a0
	}
	b.attempted += int64(f.steps)
	if err := f.csv.Flush(); err != nil {
		return fmt.Errorf("trace writer: %w", err)
	}

	us := func(ns float64) float64 { return ns / 1e3 }
	stepNS := median(bare)
	var plainNS float64
	for _, d := range plain {
		plainNS += d
	}
	b.set("sim_pm_steps_per_s", float64(f.pms*len(plain))/(plainNS/1e9), "1/s")
	b.set("xen.step_us", us(stepNS), "us")
	b.set("monitor.meter_us_per_step", us(median(meter)-stepNS), "us")
	b.set("trace.csv_us_per_step", us(median(csvBusy)), "us")
	b.set("sim.alloc_mb_per_op", float64(plainAlloc)/1e6/float64(len(plain)), "MB")
	b.set("sampling.samples_per_step", float64(engineSink.samples)/float64(bareSteps), "count")
	b.set("trace.bytes_per_step", float64(f.bytes.n-bytes0)/float64(csvSteps), "B")
	b.set("sim.trace_overhead_ratio", median(csvStep)/median(plain), "ratio")
	return nil
}
