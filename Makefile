GO ?= go

# The benchmarks tracked in the committed BENCH_kernel.json baseline (see
# docs/PERFORMANCE.md): the kernel/scheduler hot-path trio, the switch-
# cost sample and the Sporadic Server dispatch, the end-to-end Table 2
# workload, the substrate micro-benchmarks, the fleet node's two
# recurring costs — admission (accept and deny) and the invariant
# checker's per-period audit — the fleet coordinator's three — the
# least-loaded offer order, cluster construction (cold, and rebuilt in a
# warm arena) and one epoch (advance plus barrier) at 16 and 120 nodes
# — the artifact path's four layers over a 50 000-span cluster:
# stitch, manifest write, manifest read, Perfetto export — and the two
# things every run does with its instrument registry: snapshot it, and
# merge the snapshot into a cell that already carries its names — and
# one slice of the §3.4 comparators' shared dispatch loop.
BENCH_REGEX = KernelStep|SwitchSample|PeriodRollover|SporadicDispatch|SweepCell|Table2MPEGDecodeSecond|BenchmarkEventQueue$$|SchedulerSteadyState|FlightRecord|InvariantPeriod|AdmitDeny|AdmitAccept|PlacementOrder|ClusterBuild|ClusterRebuild|FleetEpoch|StitchCluster|ManifestWrite|ManifestRead|PerfettoExport|RegistrySnapshot|SnapshotMerge|ComparatorSlice
BENCH_PKGS  = ./internal/sim ./internal/sched ./internal/core ./internal/sweep ./internal/telemetry ./internal/rm ./internal/invariant ./internal/fleet ./internal/baseline

.PHONY: all build test race lint loc fuzz-smoke sweep-smoke flight-smoke bench bench-smoke telemetry-smoke telemetry-golden identity ci

all: build test lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The blocking lint gate (see docs/LINTING.md): gofmt over everything
# but the analyzers' testdata fixtures (some are deliberately odd),
# then rdlint — all analyzers including the cross-package dataflow
# suite and the stale-waiver audit, any finding fails the build — plus
# the stock go vet checks. (`go test ./internal/analysis` runs the same
# rdlint pass over the tree, so tier-1 fails on a finding too.)
lint:
	@unformatted=$$(gofmt -l . | grep -v '/testdata/'); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l: these files need formatting:"; echo "$$unformatted"; exit 1; fi
	$(GO) run ./cmd/rdlint ./...
	$(GO) vet ./...

# Go line counts per package, non-test and test, with the totals and
# the rdlint subtotal ROADMAP and CHANGES.md quote.
loc:
	@bash scripts/loc.sh

# Short fuzz runs of the exact-arithmetic kernels (Frac.Cmp against
# math/big, Frac.Add against its predecessor), the switch-cost tick
# table (against the formula it is built from), the rdtel/v2 codec
# (reader and both writers against their encoding/json references),
# the instrument registry (a reused one against one built new per
# generation), the Resource Manager (operation tapes against a
# reference model that recomputes from scratch), the fleet
# coordinator (submit / crash / restart / storm schedule tapes over 2–8
# nodes: the conservation ledger holds and nothing depends on the
# cluster worker count) and the invariant checker's audit cadence (a
# corruption planted in a live checked system is reported within the
# checker's detection contract), plus the scenario invariant sweep in
# internal/core (a regular test, fuzz-like in spirit). -fuzz takes a
# regexp and refuses to run when it matches two targets, so packages
# with several anchor theirs. A fleet execution is three cluster runs,
# so its line caps the engine's minimisation of each new tape (60 s by
# default, six smoke budgets) at one second.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz='^FuzzFracAdd$$' -fuzztime=10s ./internal/ticks
	$(GO) test -run=NONE -fuzz='^FuzzFracAddMatchesRef$$' -fuzztime=10s ./internal/ticks
	$(GO) test -run=NONE -fuzz='^FuzzFracCmpMatchesBig$$' -fuzztime=10s ./internal/ticks
	$(GO) test -run=NONE -fuzz=FuzzTickConversions -fuzztime=10s ./internal/ticks
	$(GO) test -run=NONE -fuzz=FuzzBoxLoad -fuzztime=10s ./internal/policy
	$(GO) test -run=NONE -fuzz='^FuzzSwitchSample$$' -fuzztime=10s ./internal/sim
	$(GO) test -run=NONE -fuzz='^FuzzReadManifest$$' -fuzztime=10s ./internal/telemetry
	$(GO) test -run=NONE -fuzz='^FuzzWriteJSONMatchesRef$$' -fuzztime=10s ./internal/telemetry
	$(GO) test -run=NONE -fuzz='^FuzzWritePerfettoMatchesRef$$' -fuzztime=10s ./internal/telemetry
	$(GO) test -run=NONE -fuzz='^FuzzRegistryReuse$$' -fuzztime=10s ./internal/telemetry
	$(GO) test -run=NONE -fuzz='^FuzzManagerModel$$' -fuzztime=10s ./internal/rm
	$(GO) test -run=NONE -fuzz='^FuzzFleetSchedule$$' -fuzztime=10s -fuzzminimizetime=1s ./internal/fleet
	$(GO) test -run=NONE -fuzz='^FuzzAuditGate$$' -fuzztime=10s ./internal/sched
	$(GO) test -run=TestScenarioFuzz -count=1 ./internal/core

# Worker invariance over the whole matrix: the sweep engine's tests
# under the race detector, then rdsweep over every scenario — "all"
# expands to each member of the fault, baseline and fleet families too,
# so armed injectors and the invariant checker (docs/FAULTS.md), the
# lottery's seeded RNG substream and the streamer's exact byte·27
# accounting, and the fleet's two worker pools and rebuilt arenas
# (docs/DETERMINISM.md) are all in it — on 4 workers and on 1,
# asserting byte-identical JSON aggregates. The families' own packages
# run under -race in `make race`.
sweep-smoke:
	$(GO) test -race -count=1 ./internal/sweep/...
	$(GO) run -race ./cmd/rdsweep -scenarios all -seeds 8 -workers 4 -horizon-ms 500 -quiet -json all-w4.json
	$(GO) run -race ./cmd/rdsweep -scenarios all -seeds 8 -workers 1 -horizon-ms 500 -quiet -json all-w1.json
	cmp all-w4.json all-w1.json
	rm -f all-w4.json all-w1.json

# Telemetry smoke (see docs/OBSERVABILITY.md): the telemetry suite,
# then a seeded scenario run twice — the rdtel/v2 manifests must be
# byte-identical — and an export that must pass the Chrome trace-event
# structural validation and byte-match the committed goldens under
# internal/telemetry/testdata/. -build '' keeps git state out of the
# comparison. Regenerate the goldens with `make telemetry-golden`
# after an intentional format change.
TELEMETRY_RUN = $(GO) run ./cmd/rdsim -scenario settop -seed 7 -horizon 100ms -build ''

telemetry-smoke:
	$(GO) test -count=1 ./internal/telemetry/...
	$(TELEMETRY_RUN) -manifest tel-a.json > /dev/null
	$(TELEMETRY_RUN) -manifest tel-b.json > /dev/null
	cmp tel-a.json tel-b.json
	$(GO) run ./cmd/rdtrace export -validate -o tel-trace.json tel-a.json
	cmp tel-a.json internal/telemetry/testdata/settop-smoke.manifest.golden
	cmp tel-trace.json internal/telemetry/testdata/settop-smoke.perfetto.golden
	rm -f tel-a.json tel-b.json tel-trace.json

# Flight-recorder smoke (see docs/OBSERVABILITY.md "the cluster
# flight recorder"): one fleet-crash cluster run with full span
# logging on 4 node workers and on 1, under the race detector. The
# stitched rdtel/v2 cluster manifests must be byte-identical — the
# worker-invariance contract extends to span logs, causal links and
# black-box dumps — the per-node manifest files restitched through
# rdtrace must reproduce the cluster manifest byte-for-byte, and the
# multi-track Perfetto export must pass structural validation.
flight-smoke:
	$(GO) run -race ./cmd/rdsweep -scenarios fleet-crash -horizon-ms 500 \
		-cluster-workers 4 -cluster-manifest flight-w4.json -node-manifests flight-nodes
	$(GO) run -race ./cmd/rdsweep -scenarios fleet-crash -horizon-ms 500 \
		-cluster-workers 1 -cluster-manifest flight-w1.json
	cmp flight-w4.json flight-w1.json
	$(GO) run ./cmd/rdtrace stitch -o flight-stitched.json flight-nodes/*.manifest.json
	cmp flight-w4.json flight-stitched.json
	$(GO) run ./cmd/rdtrace export -validate -o flight-trace.json flight-w4.json
	rm -rf flight-w4.json flight-w1.json flight-stitched.json flight-trace.json flight-nodes

telemetry-golden:
	$(TELEMETRY_RUN) -manifest internal/telemetry/testdata/settop-smoke.manifest.golden > /dev/null
	$(GO) run ./cmd/rdtrace export -validate \
		-o internal/telemetry/testdata/settop-smoke.perfetto.golden \
		internal/telemetry/testdata/settop-smoke.manifest.golden

# Refresh the committed layer baseline, BENCH_kernel.json's "current"
# section. End-to-end sweep throughput is benchmark/'s job (frozen
# matrices; see BENCHMARK.json).
bench:
	$(GO) test -run=NONE -bench '$(BENCH_REGEX)' -benchmem $(BENCH_PKGS) | tee bench-latest.txt
	$(GO) run ./cmd/rdperf parse -out BENCH_kernel.json < bench-latest.txt
	rm -f bench-latest.txt

# Perf regression gate for CI: the steady-state 0-allocs/op
# assertions run as regular tests, then a -benchtime=100x pass is
# compared against the committed baseline with rdperf's ±15% tolerance.
# (100 iterations, not 1: one-shot setup allocations must amortize
# the same way they do in the full `make bench` runs that produce
# the baseline, or allocs/op reads high.)
# Only the machine-independent units (allocs/op, B/op) block the
# build — single-iteration timings are far too noisy to gate on, so
# ns/op drift is judged and printed report-only. After an intended
# allocation change, refresh the baseline with `make bench` and
# commit the new BENCH_kernel.json; a local run that only wants the
# table ignores the exit status.
bench-smoke:
	$(GO) test -run 'AllocFree' -count=1 ./internal/sim ./internal/sched ./internal/rm ./internal/invariant ./internal/fleet ./internal/telemetry ./internal/workload ./internal/baseline
	$(GO) test -run=NONE -bench '$(BENCH_REGEX)' -benchtime=100x -benchmem $(BENCH_PKGS) \
		| $(GO) run ./cmd/rdperf compare -against BENCH_kernel.json

# Byte identity against a parent revision (scripts/identity.sh has the
# artifact set): make identity PARENT=<rev>. A refactor that must not
# change a byte of output runs this instead of retyping the recipe.
identity:
	@test -n "$(PARENT)" || { echo "usage: make identity PARENT=<rev>"; exit 2; }
	bash scripts/identity.sh $(PARENT)

ci: build test race lint fuzz-smoke sweep-smoke flight-smoke telemetry-smoke bench-smoke
