GO ?= go

.PHONY: build test check lint fuzz bench chaos

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Tier-2 gate: gofmt, go vet, race detector.
check:
	sh scripts/check.sh

# The five project invariant analyzers (lockdiscipline, viewpurity,
# goroutinelife, protoexhaustive, replaydeterminism); see docs/ANALYZERS.md.
lint:
	$(GO) run ./cmd/harmonylint ./...

# Short fuzz smoke of the parser->decoder->analyzer pipeline.
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzParse -fuzztime=30s ./internal/rsl/
	$(GO) test -run=^$$ -fuzz=FuzzVet -fuzztime=30s ./internal/vet/

# Optimizer hot-path benchmark, gated against the committed BENCH_19.json.
bench:
	sh scripts/bench.sh

# Seeded chaos soak across the fixed 20-seed matrix: single-server churn
# plus the replication soak (leader-kill + follower restart); see
# docs/FAULTS.md and docs/REPLICATION.md.
chaos:
	sh scripts/chaos.sh
