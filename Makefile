GO ?= go

.PHONY: check vet ctxvet build test race determinism shard-determinism meter-determinism fork-determinism pipeline obs journal serve learn bench bench-compare

# The full pre-commit gate: static checks, build, the race-enabled test
# suite (shuffled to flush test-order dependencies), the multi-GOMAXPROCS
# fitting-kernel, sharded-engine, sharded-monitoring and warm-start-fork
# determinism checks, the sample-pipeline equivalence gate, the
# observability-layer, run-journal, estimation-service and
# continuous-learning gates.
check: vet ctxvet build race determinism shard-determinism meter-determinism fork-determinism pipeline obs journal serve learn

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
# cache, drain, served-fit determinism) and the cancellation-bound tests,
# all under the race detector.
serve:
	$(GO) test -race ./internal/serve/
	$(GO) test -race -run 'TestRunMicroContextCancelsWithinOneStep|TestFitModelContextCancels|TestRunParallelFailFast|TestRunParallelLowestIndexError' ./internal/exps/

# Continuous-learning gate: the streaming/refit suite under the race
# detector — the unified error envelope on every 4xx/5xx path, the
# ingest partial-accept contract, idle-tenant eviction, the deterministic
# seed/keep/swap drift lifecycle, and the hot-swap torn-read hammer
# (readers must never observe a model whose coefficients do not hash to
# its advertised identity) — plus the drift rule's own unit suite.
learn:
	$(GO) test -race -cpu 1,4 -run 'TestServeErrorEnvelope|TestServeIngestContract|TestServeTenantEviction|TestServeRefitLifecycle|TestServeRefitDeterminism|TestServeHotSwapConsistency|TestServeRefitLoop|TestOptionsNormalize|TestServeHealthzVersion' ./internal/serve/
	$(GO) test -race -run 'TestCompareOnWindow' ./internal/core/

# Hot-path benchmarks (engine step + sample pipeline + fitting/selection
# kernels) with allocation reporting; the parsed results land in
# BENCH_stats.json so the next PR has a perf trajectory to compare against.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkEngine|BenchmarkCampaignStepMetered|BenchmarkCampaignWarmStart|BenchmarkMeter$$|BenchmarkCSVSink|BenchmarkLMSFit|BenchmarkSelectKth|BenchmarkOLSFit|BenchmarkCDF|BenchmarkServeRefit' -benchmem . | $(GO) run ./cmd/benchjson -out BENCH_stats.json

# Re-run the metering-path benchmarks and diff them against the committed
# BENCH_stats.json baseline: a >20% ns/op regression in any metering
# benchmark fails the target, as does the journaled step's overhead over
# the observed step growing by >20 percentage points (the -overhead pair
# is a within-file ratio, so it survives an _env mismatch). Comparable
# absolute numbers need a comparable machine, so an _env mismatch with the
# committed baseline skips the delta table (benchjson prints SKIPPED)
# instead of reporting machine noise as a regression.
bench-compare:
	$(GO) test -run '^$$' -bench 'BenchmarkEngineCampaignStep|BenchmarkCampaignStepMetered|BenchmarkCampaignWarmStart|BenchmarkEngineDatacenterMetered|BenchmarkMeter$$|BenchmarkServeRefit' -benchmem . | $(GO) run ./cmd/benchjson -out /tmp/bench_new.json
	$(GO) run ./cmd/benchjson -compare -threshold 20 -skip-env-mismatch -overhead 'BenchmarkEngineCampaignStepObserved,BenchmarkEngineCampaignStepJournaled' BENCH_stats.json /tmp/bench_new.json
