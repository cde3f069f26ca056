# Tier-1 verification: build, vet (+staticcheck when installed), full test
# suite, then race-detector runs of the concurrency-heavy packages
# (parallel transfers in core, connection pool + shared health scoreboard
# in ibp, depot metric counters, lbone registry, the obs collector, and
# the daemon bootstrap's signal, listener and announcer goroutines).
.PHONY: tier1 build vet staticcheck test race fuzz-smoke bench bench-check stackmon-smoke slo-smoke registry-smoke repair-smoke obsd-smoke

tier1: build vet staticcheck test race

build:
	go build ./...

vet:
	go vet ./...

# staticcheck is optional tooling: run it when the host has it, fall back
# to vet-only otherwise (no network installs during verification).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go vet still ran)"; \
	fi

test:
	go test ./...

race:
	go test -race repro/internal/core repro/internal/ibp repro/internal/health \
		repro/internal/depot repro/internal/lbone repro/internal/obs \
		repro/internal/transfer repro/internal/faultnet repro/internal/stackmon \
		repro/internal/slo repro/internal/registry repro/internal/repaird \
		repro/internal/obsfleet repro/internal/tsdb repro/internal/daemon

# Fuzz smoke: every Go-native fuzz target in the module (the perfstack
# module aside) runs for 5 s against its committed seed corpus. -fuzz takes
# one target per run, so targets are found by name and run one at a time.
# A crasher is written under the package's testdata/fuzz/ and fails the run.
fuzz-smoke:
	@set -e; for f in $$(grep -rl --include='*_test.go' --exclude-dir=perfstack '^func Fuzz' .); do \
		for t in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' $$f); do \
			echo "fuzz $$(dirname $$f) $$t"; \
			go test -run '^$$' -fuzz "^$$t$$" -fuzztime 5s $$(dirname $$f); \
		done; \
	done

# End-to-end transfer benchmarks → BENCH_upload_download.json
# (ns/op and MB/s per bench; raw bench log stays on stderr), plus the
# hedged-vs-unhedged slow-depot comparison → BENCH_transfer.json
# (simulated p50/p99 seconds per download with and without hedging; a
# fixed iteration count keeps the percentiles comparable across runs),
# plus the pack-engine small-object latency curve → BENCH_smallobject.json
# (p50/p99 store and load ns at 10k/100k/1M live allocations; the fixed
# iteration count keeps the percentile estimators comparable).
#
# The upload/download run is also gated against the committed baseline:
# benchjson -check fails (and the mv is skipped, preserving the baseline)
# if upload or download allocs/op regressed more than 20%. New output lands in .tmp
# first — a shell '>' straight onto the baseline would truncate it before
# benchjson gets to read it.
bench:
	go test -run '^$$' -bench 'BenchmarkUploadDownload|BenchmarkIBPRoundTrip' -benchmem . \
		| go run ./cmd/benchjson \
			-check BENCH_upload_download.json \
			-name UploadDownload/upload,UploadDownload/download \
			-metric allocs_per_op -max-regress 0.20 \
			> BENCH_upload_download.json.tmp \
		&& mv BENCH_upload_download.json.tmp BENCH_upload_download.json
	@echo "wrote BENCH_upload_download.json"
	go test -run '^$$' -bench 'BenchmarkTransferSlowDepot' -benchtime 20x . \
		| go run ./cmd/benchjson > BENCH_transfer.json
	@echo "wrote BENCH_transfer.json"
	go test -run '^$$' -bench 'BenchmarkSmallObject' -benchtime 20000x -count=3 . \
		| go run ./cmd/benchjson > BENCH_smallobject.json
	@echo "wrote BENCH_smallobject.json"

# Allocation regression gate only, without rewriting any baseline: a short
# upload and download run compared against the committed
# BENCH_upload_download.json. allocs/op is a deterministic count at steady
# state, so a small -benchtime is enough; CI runs this on every push.
bench-check:
	go test -run '^$$' -bench 'BenchmarkUploadDownload' -benchmem -benchtime 20x . \
		| go run ./cmd/benchjson \
			-check BENCH_upload_download.json \
			-name UploadDownload/upload,UploadDownload/download \
			-metric allocs_per_op -max-regress 0.20 \
			> /dev/null

# Availability-study smoke: a 24h virtual-clock stackmon simulation over
# faultnet (finishes in seconds of wall time) with two scripted outages,
# written as the paper-style JSON study → STACKMON_study.json. Exercises
# the whole monitor path: probe sweeps, data rounds, availability math.
stackmon-smoke:
	go run ./cmd/stackmon sim -depots 6 -duration 24h -interval 5m \
		-outages 'D02:6h-9h,D05:2h-3h30m,D05:11h-14h' \
		-json STACKMON_study.json
	go run ./cmd/stackmon report -in STACKMON_study.json
	@echo "wrote STACKMON_study.json"

# SLO smoke: the same scripted-outage simulation with burn-rate objectives
# enabled — the outage must surface as alert firings (→ SLO_alerts.json) —
# plus the end-to-end observability test, which rides a striped+replicated
# download through a depot outage and cuts the postmortem bundle into the
# working directory (→ POSTMORTEM_<trace>.json) for CI to archive.
slo-smoke:
	go run ./cmd/stackmon sim -depots 4 -duration 14h -interval 5m \
		-outages 'D02:6h-9h' -slo -slo-out SLO_alerts.json
	POSTMORTEM_DIR=$(CURDIR) go test -count=1 \
		-run TestOutageFiresAlertAndCutsMatchingBundle ./internal/slo/
	@echo "wrote SLO_alerts.json and POSTMORTEM_*.json"

# Repair-fleet smoke: the 48-virtual-hour churn soak — 21 depots failing
# on the paper's §3 availability schedule, 200 files on 8h leases, two
# shard-assigned maintenance daemons refreshing and re-replicating through
# the per-depot repair limiter. Fails if any file's persistent redundancy
# ever drops below its durability target; writes the fleet's activity
# report to repair-smoke/REPAIR_soak.json for CI to archive.
repair-smoke:
	REPAIR_SOAK_DIR=$(CURDIR)/repair-smoke go test -count=1 \
		-run TestRepairFleetChurnSoak ./internal/repaird/
	@echo "wrote repair-smoke/REPAIR_soak.json (churn-soak fleet report)"

# Registry smoke: the quorum acceptance experiment — three registry
# replicas on a scripted fault schedule. A minority kill mid-upload is
# masked by the quorum; a majority kill is detected, fails fast within
# the virtual-time budget, and cuts its postmortem bundle into
# registry-smoke/ (→ POSTMORTEM_*.json) for CI to archive.
registry-smoke:
	REGISTRY_SMOKE_DIR=$(CURDIR)/registry-smoke go test -count=1 \
		-run TestQuorumSurvivesMinorityKillDetectsMajorityKill ./internal/registry/
	@echo "wrote registry-smoke/POSTMORTEM_*.json (registry majority-loss bundle)"

# Fleet-observability smoke: the obsd acceptance experiment — three
# registry replicas, three depots (one on a scripted faultnet outage), a
# client harness, and two maintaind shards all self-register control
# endpoints; obsd discovers them via CLIST and must (a) mirror the
# harness's burn-rate alert in /fleet/slo, (b) join one download's trace
# across >= 3 daemons, (c) expose a histogram exemplar that resolves back
# through /fleet/trace, (d) capture a pprof profile next to the
# postmortem bundle when the alert fires, (e) land the operator report,
# (f) answer /fleet/query with a nonzero error rate over exactly the
# scripted outage window (vclock-pinned) and zero outside it, (g) report
# a /fleet/budget verdict that fails mid-outage — naming the onset as
# the worst burn window — and passes post-recovery, (h) attribute the
# outage tail to the killed depot via /fleet/attribution, and (i) flush
# a FLEET_budget.json that parses back with the live verdicts.
# Artifacts (FLEET_report.json/.md, FLEET_budget.json,
# FLEET_attribution.json, PROFILE_*, POSTMORTEM_*) land in obsd-smoke/.
obsd-smoke:
	OBSD_SMOKE_DIR=$(CURDIR)/obsd-smoke go test -count=1 \
		-run TestObsdFleetSmoke ./internal/obsfleet/
	@echo "wrote obsd-smoke/FLEET_report.json, FLEET_budget.json, FLEET_attribution.json"
