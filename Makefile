GO ?= go
GOFMT ?= gofmt

.PHONY: check fmt vet ctxvet build test race determinism shard-determinism meter-determinism fork-determinism pipeline obs journal serve learn bench bench-compare

# The full pre-commit gate: formatting and static checks, build, the race-enabled test
# suite (shuffled to flush test-order dependencies), the multi-GOMAXPROCS
# fitting-kernel, sharded-engine, sharded-monitoring and warm-start-fork
# determinism checks, the sample-pipeline equivalence gate, the
# observability-layer, run-journal, estimation-service and
# continuous-learning gates.
check: fmt vet ctxvet build race determinism shard-determinism meter-determinism fork-determinism pipeline obs journal serve learn

# Formatting gate: fails, listing the files, when gofmt would rewrite any.
fmt:
	@out=$$($(GOFMT) -l .); if [ -n "$$out" ]; then echo "gofmt -l lists files to format:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Context convention: new exported Run*/Fit* entry points in internal/exps
# and internal/serve must take context.Context first (legacy wrappers are
# allowlisted in the script).
ctxvet:
	./scripts/ctxvet.sh

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -shuffle=on ./...

# The parallel LMS kernel promises bit-identical fits at every worker
# count; race-check that contract at several GOMAXPROCS values.
determinism:
	$(GO) test -run TestLMSDeterminism -race -cpu 1,2,4 ./internal/stats/

# The sharded engine promises byte-identical traces at every shard count;
# race-check that contract (sample-level equality in internal/xen, the
# golden CSV fixture in internal/trace) across the Shards x GOMAXPROCS
# matrix.
shard-determinism:
	$(GO) test -race -cpu 1,2,8 -run 'TestShardDeterminism|TestSetShardsMidRun|TestEngineStateRoundTrip|TestShardedStepAllocationFree' ./internal/xen/
	$(GO) test -race -cpu 1,2,8 -run TestGoldenTraceDeterminism ./internal/trace/

# The sharded monitoring pipeline promises byte-identical measured output
# at every shard count: the full-chain and chain-composition equivalence
# test, the sharded-sink contract units (each drives ConsumeShard from
# concurrent goroutines), and the golden metered-campaign fixture (shards
# {1,2,8}), race-checked across the GOMAXPROCS matrix.
meter-determinism:
	$(GO) test -race -cpu 1,2,8 -run 'TestShardedPipelineMatchesSerial|TestShardedMeterActuallyShards|TestShardedIrregularSegmentsDefer|TestMeteredCampaignGolden' ./internal/monitor/
	$(GO) test -race -cpu 1,2,8 -run 'TestStatAndCDFSharded|TestFilterSharded|TestDecimatorSharded|TestFanoutSharded|TestFanoutErrJoins|TestShardedBatchSinkImplementers' ./internal/sampling/

# Warm-start forking gate: a run forked from a warmed prefix emits a
# measured trace byte-identical to the same run simulated from scratch, at
# every shard count, race-checked across the GOMAXPROCS matrix — plus the
# zero-alloc restore bound and the prefix-cache singleflight. The second
# line pins the campaign output that settles inline instead of forking:
# the bit-digest prediction/RUBiS-trace golden and the byte-identical
# quick report (repeated, and at two shards).
fork-determinism:
	$(GO) test -race -cpu 1,2,8 -run 'TestForkedRunEquivalence|TestForkStateHashStable|TestRestoreStateIntoAllocs|TestForkCacheLRU|TestForkCacheSingleflight|TestForkCacheBuildErrorNotCached' ./internal/xen/
	$(GO) test -race -cpu 1,2,8 -run 'TestPredictionGolden|TestFullReportDeterminism' ./internal/exps/

# Batched-pipeline safety net: the golden-trace fixture (byte-identical CSV
# through the batched meter + fast writer), the whole-batch vs
# one-sample-batch equivalence test over every chain composition, and the
# detach-every-built-in-stage test, all under the race detector.
pipeline:
	$(GO) test -race -run 'TestGoldenTrace|TestBatchScalarEquivalence|TestCSVSinkMatchesEncodingCSV' ./internal/trace/ ./internal/monitor/
	$(GO) test -race -run 'TestDetachSinkBuiltinStages' .

# Observability gate: the metrics registry's lock-free concurrency under
# the race detector, the Prometheus/span golden tests, and the two
# allocation bounds (disabled: 0-alloc engine step preserved; enabled:
# <= 2 allocs/step).
obs:
	$(GO) test -race ./internal/obs/...
	$(GO) test -run 'TestObservedCampaignStepAllocs|TestMeteredCampaignStepAllocs|TestDebugServerEndToEnd' .

# Run-journal gate: the golden journal fixture must be byte-identical at
# shards {1,2,8} across the GOMAXPROCS matrix, telemetry must not perturb
# measured output, and the two allocation pins must hold (journaling off:
# the engine step stays 0-alloc; journaling + profiling on: bounded).
journal:
	$(GO) test -race -cpu 1,2,8 -run 'TestJournalCampaignGolden|TestJournalDoesNotPerturb' ./internal/monitor/
	$(GO) test -run 'TestJournaledCampaignStepAllocs' .

# Estimation-service gate: the concurrent e2e suite (saturation/429,
# cache, drain, served-fit determinism) and the cancellation-bound tests
# (one campaign, the model fit, a paper-size report canceled in its
# extension studies, the campaign pool), all under the race detector.
serve:
	$(GO) test -race ./internal/serve/
	$(GO) test -race -run 'TestRunMicroContextCancelsWithinOneStep|TestFitModelContextCancels|TestFullReportContextCancelsInExtensions|TestRunParallelFailFast|TestRunParallelLowestIndexError' ./internal/exps/

# Continuous-learning gate: the streaming/refit suite under the race
# detector — the unified error envelope on every 4xx/5xx path, the
# ingest partial-accept contract, idle-tenant eviction, the deterministic
# seed/keep/swap drift lifecycle, and the hot-swap torn-read hammer
# (readers must never observe a model whose coefficients do not hash to
# its advertised identity) — plus the drift rule's own unit suite.
learn:
	$(GO) test -race -cpu 1,4 -run 'TestServeErrorEnvelope|TestServeIngestContract|TestServeTenantEviction|TestServeRefitLifecycle|TestServeRefitDeterminism|TestServeHotSwapConsistency|TestServeRefitLoop|TestOptionsNormalize|TestServeHealthzVersion' ./internal/serve/
	$(GO) test -race -run 'TestCompareOnWindow' ./internal/core/

# Hot-path benchmarks (engine step + sample pipeline + fitting/selection,
# model training, bootstrap/FFT kernels and the random source) and the
# end-to-end paper-size report, with allocation reporting; the parsed results
# land in BENCH_stats.json so the next PR has a perf trajectory to compare
# against. Pinned to -cpu 1 so the recorded environment (one P) is the
# same on every machine and bench-compare can diff it anywhere. The suite
# runs in three separate passes and benchjson keeps each benchmark's
# fastest run: on a shared machine interference only adds time and comes
# and goes over minutes, so passes spread in time filter it out better
# than back-to-back -count repeats.
bench:
	for pass in 1 2 3; do $(GO) test -run '^$$' -bench 'BenchmarkEngine|BenchmarkCampaignStepMetered|BenchmarkCampaignWarmStart|BenchmarkMeter$$|BenchmarkCSVSink|BenchmarkLMSFit|BenchmarkSelectKth|BenchmarkOLSFit|BenchmarkCDF|BenchmarkServeRefit|BenchmarkBootstrapOLS|BenchmarkCompareOnWindow|BenchmarkFFT|BenchmarkTrain$$|BenchmarkSimrandNew|BenchmarkSimrandIntn|BenchmarkReportPaper' -benchmem -cpu 1 .; done | $(GO) run ./cmd/benchjson -out BENCH_stats.json

# Re-run the metering-path and refit benchmarks at -cpu 1 (fastest of
# three passes, as recorded) and diff them against the committed BENCH_stats.json
# baseline: a >20% ns/op regression in any of them fails the target, as
# does the journaled step's overhead over the observed step growing by
# >20 percentage points (a within-file ratio). Both files are recorded at
# GOMAXPROCS 1, so their environments match on any machine; benchjson
# refuses to diff a GOMAXPROCS mismatch and only notes a differing CPU
# count.
bench-compare:
	for pass in 1 2 3; do $(GO) test -run '^$$' -bench 'BenchmarkEngineCampaignStep|BenchmarkCampaignStepMetered|BenchmarkCampaignWarmStart|BenchmarkEngineDatacenterMetered|BenchmarkMeter$$|BenchmarkServeRefit' -benchmem -cpu 1 .; done | $(GO) run ./cmd/benchjson -out /tmp/bench_new.json
	$(GO) run ./cmd/benchjson -compare -threshold 20 -overhead 'BenchmarkEngineCampaignStepObserved,BenchmarkEngineCampaignStepJournaled' BENCH_stats.json /tmp/bench_new.json
