# The one-command check CI and contributors run before merging.
.PHONY: verify fmt vet unused build test bench benchmark bench-pairs cache-ablation-smoke trace-demo fuzz-smoke check chaos-smoke soak soak-smoke soak-diff regen-golden loc

verify: fmt vet unused build test fuzz-smoke

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# bench/ is a module of its own, so ./... does not reach it.
vet:
	go vet ./...
	go vet -C bench ./...

# Exported functions and methods under internal/ with no caller outside
# tests (or none outside bench/), exported *Config fields that no
# caller outside their package sets, and exported names of the difane
# facade with no user, must be named, with a reason, in
# scripts/unused.allow: what nothing calls, turns or uses either goes or
# says why not. A registered difane_* series that no string literal
# anywhere reads (a health rule, the soak, difanectl, bench/, a test)
# fails with no list to excuse it. Then the gate runs on each fixture
# tree under scripts/testdata/unused, a canary it must fail with exactly
# the lines of the tree's want file.
unused:
	sh scripts/unused.sh
	@for t in scripts/testdata/unused/*/; do \
		if out=$$(sh scripts/unused.sh $$t); then echo "$$t: the gate passed its canary"; exit 1; fi; \
		if [ "$$out" != "$$(cat $$t/want)" ]; then \
			printf '%s: want\n%s\ngot\n%s\n' $$t "$$(cat $$t/want)" "$$out"; exit 1; fi; \
	done

build:
	go build ./...

# bench/ is a module of its own (its go.mod replaces difane => ../), so
# ./... does not reach it.
# The last line is a smoke, not a gate: every micro-benchmark beside the
# rule tables and the miss path runs once, so one that no longer compiles
# or fails its own checks shows here rather than the next time someone
# wants its number.
test:
	go test -race ./...
	go test -C bench ./...
	go test -run '^$$' -bench . -benchtime 1x ./internal/tcam ./internal/switchsim ./internal/flowspace ./internal/core ./internal/wire

bench:
	go test -bench=. -benchmem ./...

# The repo's one benchmark: four wire-mode workloads, rep-median
# end-to-end metrics (BENCHMARK.json names them; bench/README.md explains
# them). Add `-workload W -trace 1` by hand for the per-layer ledger. The
# PR pipeline's parent-vs-change run of this is the only timing gate.
benchmark:
	go run -C bench .

# Interleaved pairs of one workload, BASE against the working tree, N
# seed-7 runs a side alternating which goes first: every run, each side's
# median and quartiles and the change's wins for all seven end-to-end
# metrics BENCHMARK.json names, goodput_pps to tcam_entries_max (what
# BENCH_<pr>.json's interleaved sets record). 5-7 s a run on the
# closed-loop workloads, ~25 s on paced-mix.
W ?= hit-small
N ?= 10
BASE ?= HEAD
bench-pairs:
	sh scripts/bench-pairs.sh $(W) $(N) $(BASE)

# The adaptive-caching gate: the short F6b eviction ablation on a fixed
# seed — a flash-crowd + scan workload under hard TCAM budgets — fails
# unless the cost-aware policy's miss rate is at or below LRU's at every
# budget. On failure the rendered table lands in bench-out/ for CI's
# artifact upload.
cache-ablation-smoke:
	go run ./cmd/difane-bench -cache-ablation-smoke -quick

# Boot an 8-switch wire cluster with the telemetry endpoint live, scrape
# it, and shut down — the quickest look at the ops surface.
trace-demo:
	@go run ./cmd/difanectl serve -telemetry 127.0.0.1:9090 -duration 8s & \
	sleep 4; \
	echo "--- /metrics (excerpt) ---"; \
	curl -s http://127.0.0.1:9090/metrics | grep -E '^difane_(delivered|dropped|trace)' ; \
	echo "--- /trace (last 8 events) ---"; \
	curl -s 'http://127.0.0.1:9090/trace?limit=8'; \
	wait

# Quick differential sweep: seeded scenarios through all three deployments
# (sim, baseline, wire), every packet verdict diffed against the oracle.
check:
	go test ./internal/scencheck -run TestDifferential -seeds 16

# Chaos smoke under the race detector: differential scenarios that kill
# switches AND controllers mid-traffic (BFD detection, backup promotion,
# leader elections, epoch fencing — zero verdict divergence allowed),
# an authority whose data plane stalls while its control plane still
# answers (caught by the unacknowledged redirects alone),
# plus the wire HA suite with its leader-churn goroutine-leak check, a
# leader killed between an update's phases (at each of its boundaries, in
# runs of their own), an election that must
# reconcile without churn (also after a load rebalance, and with a dead
# authority promoted away from) and keep the partition rules' counters
# (no rewrite at adopt), a rebalance that skips an authority the detector
# holds dead though it runs, a killed switch
# declared dead by BFD within twice its detect time, and
# the controller-free install path (new flows cached with the controller
# dead; Run returning only once installs are applied, woken by a switch's
# death, and waited in by several goroutines at once), and the one
# registration of the metric schema: the three backends' series compared,
# and a scraper looping against 200k forwarded packets. Last, fifty runs
# each of the ring-page hand-overs (a page a consumer frees feeding
# another ring's producer, a drain to head == tail racing the producer's
# next burst), so that a rare interleaving of the drained-page lease shows.
chaos-smoke:
	go test -race ./internal/scencheck -run TestChaosSmoke -timeout 10m
	go test -race ./internal/wire -timeout 10m \
		-run 'TestLeaderKillAutoFailover|TestKillAllReplicasNeedsRestore|TestLeaderChurnNoGoroutineLeak|TestStaleLeaderInstallFenced|TestBFDDetectsKillWithinTwiceDetectTime|TestJournalReplicationAcrossElection|TestDeposedUpdateIsFenced|TestLeaderKillAtEveryPhaseBoundary|TestElectionReconcilesWithoutChurn|TestResumeOnUnchangedClusterSendsNoFlowMod|TestResumeAfterFailoverSendsNoFlowMod|TestRebalanceSkipsFailedAuthorities|TestPartitionCountersSurviveResume|TestRebalanceSurvivesElection|TestControllerOutageRideThrough|TestRunQuiescesInstalls|TestRunWakesWhenSwitchKilled|TestConcurrentRun|TestSharedSchemaAcrossBackends|TestScrapeWhileForwarding|TestConsistentUpdateUnderTraffic|TestStalledAuthorityDetectedByRedirectAck'
	go test -race ./internal/wire -timeout 10m -count 50 \
		-run 'TestFrameRingRecyclesPages|TestRingPagesPassBetweenRings'

# Subscriber-scale soak — not part of tier-1. Streams ≥1M modeled
# subscriber sessions (Poisson churn, host mobility, a flash crowd and a
# cache-thrashing scan) through a live wire cluster, sampling 1-in-4096
# packet verdicts against the oracle; exits nonzero on any divergence or
# accounting-identity break. The JSON report (phase summaries plus
# miss-rate / TCAM-occupancy / redirect-load time series) lands in
# bench-out/.
soak:
	go run ./cmd/difane-soak -subscribers 2097152 -rate 25000 -duration 50 \
		-sample 4096 -out bench-out/SOAK_report.json

# CI-sized soak: the same engine with flash-crowd and churn phases on a
# 30-second wall budget, gated on zero sampled-verdict divergences plus
# the forensics gates — 1-in-64 journey sampling must assemble ≥ 99% of
# sampled packets into complete journeys, and no critical SLO rule may be
# firing at the end. CI uploads bench-out/SOAK_smoke.json when it fails.
soak-smoke:
	go run ./cmd/difane-soak -smoke -subscribers 262144 -rate 4000 \
		-duration 16 -sample 1024 -wall-budget 30s \
		-trace-sample 64 -journey-gate 0.99 \
		-out bench-out/SOAK_smoke.json

# Long differential soak — not part of tier-1. Failing-seed reports land in
# artifacts/ with a minimal shrunk repro each.
SOAK_SEEDS ?= 256
soak-diff:
	go test ./internal/scencheck -run TestDifferential -seeds $(SOAK_SEEDS) \
		-artifacts artifacts -timeout 30m

# Non-test Go lines: the three packages ROADMAP item 9 tracks, their sum,
# the rule-table, switch and wire-format packages it quotes beside them
# with the switchsim+tcam sum item 15 counts, the controller journal, the
# cost-aware caching
# stack (internal/cachepolicy and the two files that hold it in a
# deployment) with its sum, the root package's facade (difane.go), and
# the whole repo outside bench/. The last
# line is the schema's size: the distinct difane_* names non-test Go
# registers (a name as a call's first argument, as scripts/unused.sh reads
# a registration).
LOC = find $(1) -name '*.go' ! -name '*_test.go' $(2) -exec cat {} + | wc -l
loc:
	@sum=0; for d in internal/wire internal/core internal/telemetry; do \
		n=$$($(call LOC,$$d)); \
		printf '%-28s %6d\n' $$d $$n; sum=$$((sum + n)); done; \
	printf '%-28s %6d\n' 'wire+core+telemetry' $$sum; \
	printf '%-28s %6d\n' 'core+wire' $$(( $$($(call LOC,internal/core)) + $$($(call LOC,internal/wire)) )); \
	for d in internal/tcam internal/flowspace internal/switchsim internal/proto internal/journal; do \
		printf '%-28s %6d\n' $$d $$($(call LOC,$$d)); done; \
	printf '%-28s %6d\n' 'switchsim+tcam' $$(( $$($(call LOC,internal/switchsim)) + $$($(call LOC,internal/tcam)) )); \
	sum=0; for d in internal/cachepolicy internal/core/adapt.go internal/wire/cacheadapt.go; do \
		n=$$($(call LOC,$$d)); \
		printf '%-28s %6d\n' $$d $$n; sum=$$((sum + n)); done; \
	printf '%-28s %6d\n' 'cost-aware stack' $$sum; \
	printf '%-28s %6d\n' difane.go $$(wc -l < difane.go); \
	printf '%-28s %6d\n' 'repo outside bench/' $$($(call LOC,.,! -path './bench/*')); \
	printf '%-28s %6d\n' 'difane_* names registered' \
		$$(grep -rhoE --include='*.go' --exclude='*_test.go' '\("difane_[a-z0-9_]+",' . | sort -u | wc -l)

# Refresh the experiment golden outputs and the generated metric reference
# (docs/METRICS.md) after an intentional change.
regen-golden:
	go test ./experiments -run TestGoldenOutputs -update-golden
	go test . -run TestMetricReference -update-golden

# Short fuzz runs over the decoders that face untrusted bytes: decode
# must return an error, never panic or over-allocate. The last one holds
# the TCAM index's packed slot test to Match.Holds on arbitrary keys.
fuzz-smoke:
	go test -run=^$$ -fuzz=FuzzDecodeFrame -fuzztime=10s ./internal/proto/
	go test -run=^$$ -fuzz=FuzzReadMessage -fuzztime=10s ./internal/proto/
	go test -run=^$$ -fuzz=FuzzParseRule -fuzztime=10s ./internal/policyio/
	go test -run=^$$ -fuzz=FuzzPackedMatchAgreesWithHolds -fuzztime=10s ./internal/tcam/
