GO ?= go

# Pinned external analyzer versions (see tools/tools.go). Installed on demand
# in CI; `make lint` / `make vuln` skip them gracefully when absent so the
# repo keeps building in offline sandboxes.
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: all tier1 vet fmt bench digest digest-check loc loc-check lint vuln fuzz soak

all: tier1 vet lint

# tier1 is the gate every PR must keep green.
tier1:
	$(GO) build ./...
	$(GO) test ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -l -w .

# lint runs the repo's own determinism/concurrency multichecker (always) and
# staticcheck (when installed — CI installs the pinned version; offline
# sandboxes skip it).
lint:
	$(GO) run ./cmd/lint ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; skipping (CI runs $(STATICCHECK_VERSION))"; \
	fi

# vuln scans the module against the Go vulnerability database (needs network;
# skipped when govulncheck is absent).
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "vuln: govulncheck not installed; skipping (CI runs $(GOVULNCHECK_VERSION))"; \
	fi

# fuzz smoke-runs every fuzz target (wire codecs, snapshot assembly, lsdb
# kernels) for FUZZTIME each.
FUZZTIME ?= 30s
fuzz:
	FUZZTIME=$(FUZZTIME) ./scripts/fuzz.sh

# bench runs the performance ledger: four whole-overlay workloads, end-to-end
# metrics and per-layer rows into benchmark/out/ (see benchmark/README.md).
bench:
	$(GO) run ./benchmark

# digest prints `workload seed sim_digest` for the four ledger workloads at
# each seed in SEEDS: the behaviour-identity check. Two commits that print the
# same lines simulated the same events in the same order.
SEEDS ?= 1
digest:
	@SEEDS="$(SEEDS)" ./scripts/digest.sh

# digest-check is "behaviour identical" as a red/green gate: the digests at
# seeds 1 and 7 must equal scripts/digest.golden (≈ 1 min on 2 vCPU). A change
# that means to alter simulated behaviour re-captures the file in the same PR,
# in the open: make digest SEEDS="1 7" > scripts/digest.golden
digest-check:
	@SEEDS="1 7" ./scripts/digest.sh | diff scripts/digest.golden - \
		&& echo "digest-check: all eight digests match scripts/digest.golden"

# loc prints the tracked size: non-test Go lines, and every line of assembly,
# outside benchmark/ and testdata/ (lint fixtures are not product code). It
# should go down (ROADMAP aim 2).
loc:
	@find . \( -name '*.go' -o -name '*.s' \) -not -name '*_test.go' -not -path './benchmark/*' -not -path '*/testdata/*' | xargs cat | wc -l

# loc-check makes that number a ratchet: it fails when `make loc` exceeds
# scripts/loc.ceiling. A PR that shrinks the tree lowers the ceiling to its
# own result; one that must grow the tree raises it in the open.
loc-check:
	@loc=$$($(MAKE) -s loc); ceiling=$$(cat scripts/loc.ceiling); \
	if [ "$$loc" -gt "$$ceiling" ]; then \
		echo "loc-check: $$loc non-test lines exceed scripts/loc.ceiling ($$ceiling)"; exit 1; \
	fi; \
	echo "loc-check: $$loc non-test lines, ceiling $$ceiling"

# soak runs hours of virtual time of Poisson churn under the lossy-gossip
# fault plane (5% loss, duplication, jitter) with a hard live-heap ceiling:
# a leaking dedup cache or delta log shows up as monotonic heap growth.
# Override SOAK_MINUTES / SOAK_N / SOAK_HEAP_MB for quicker runs; CI runs a
# minutes-scale variant under the race detector.
SOAK_MINUTES ?= 120
SOAK_N ?= 120
SOAK_HEAP_MB ?= 512
soak:
	$(GO) run ./cmd/experiments soak -n $(SOAK_N) -minutes $(SOAK_MINUTES) -max-heap-mb $(SOAK_HEAP_MB)
