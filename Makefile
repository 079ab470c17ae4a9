GO ?= go

.PHONY: build test check fuzz bench chaos

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Tier-2 gate: gofmt, go vet, race detector.
check:
	sh scripts/check.sh

# Short fuzz smoke of every fuzz target, one after the other. This list is the
# only one: CI's fuzz-smoke job runs `make fuzz FUZZTIME=10s`. Every
# FuzzRecover execution writes and fsyncs a store, and left at its default the
# minimizer would spend the whole budget on the first new input; the cap is
# harmless for the other targets.
FUZZTIME ?= 30s
FUZZ_TARGETS = \
	FuzzParse:./internal/rsl/ \
	FuzzChoiceCount:./internal/rsl/ \
	FuzzVet:./internal/vet/ \
	FuzzAdmissionMatchesWorkload:./internal/vet/ \
	FuzzDominance:./internal/vet/ \
	FuzzDecodeMessage:./internal/protocol/ \
	FuzzMayFit:./internal/match/ \
	FuzzPlanRelations:./internal/match/ \
	FuzzColumnsMatchLedger:./internal/resource/ \
	FuzzRecover:./internal/replog/

fuzz:
	@set -e; for t in $(FUZZ_TARGETS); do \
		echo "== $${t%%:*} ($${t#*:})"; \
		$(GO) test -run='^$$' -fuzz="$${t%%:*}" -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s "$${t#*:}"; \
	done

# Optimizer hot-path benchmark, gated against the committed BENCH_35.json.
bench:
	sh scripts/bench.sh

# Seeded chaos soak across the fixed 20-seed matrix: single-server churn
# plus the replication soak (leader-kill + follower restart); see
# docs/FAULTS.md and docs/REPLICATION.md.
chaos:
	sh scripts/chaos.sh
