#!/bin/sh
# Tier-2 gate: formatting, static analysis and the race detector.
# Tier-1 (go build ./... && go test ./...) is implied by the race run.
#
# CONTRIBUTING notes:
#   - Run `sh scripts/check.sh` (or `make check`) before sending a change;
#     CI runs exactly this script.
#   - `make lint` runs just the harmonylint sweep (two project invariants:
#     protoexhaustive, replaydeterminism — see docs/ANALYZERS.md; goroutine
#     shutdown is a runtime test, TestCloseJoinsEveryGoroutine). Suppress a finding only
#     with a justified `//harmonylint:allow <check> <reason>` directive;
#     reasonless or stale directives are themselves reported.
#   - Tests run shuffled in CI (`go test -shuffle=on`); keep tests free of
#     inter-test ordering assumptions.
#   - SARIF from harmonyctl lint, harmonylint, staticcheck and govulncheck
#     is merged into one artifact ($SARIF_OUT); the merge happens even when
#     a stage fails so CI can upload findings from a red run.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== workflow YAML (duplicate keys)"
# A mapping that names a key twice is invalid YAML, and GitHub then drops the
# whole workflow without a word: the gates below would not run in CI at all.
# Keys are compared per mapping: a shallower line or a new "- " item closes
# the deeper mappings, and the lines of a block scalar are not keys.
for wf in .github/workflows/*.yml; do
	awk -v file="$wf" '
		/^[ ]*(#|$)/ { next }
		{
			col = match($0, /[^ ]/) - 1
			if (scalar >= 0 && col > scalar) next
			scalar = -1
			line = substr($0, col + 1)
			if (line ~ /^- /) {
				for (k in seen) { split(k, p, SUBSEP); if (p[1] + 0 > col) delete seen[k] }
				col += 2
				line = substr(line, 3)
			}
			for (k in seen) { split(k, p, SUBSEP); if (p[1] + 0 > col) delete seen[k] }
			if (match(line, /^[A-Za-z0-9_.-]+:( |$)/)) {
				key = substr(line, 1, RLENGTH)
				sub(/: ?$/, "", key)
				if ((col, key) in seen) {
					printf "%s:%d: duplicate key \"%s\" (first at line %d)\n", file, NR, key, seen[col, key]
					bad = 1
				}
				seen[col, key] = NR
				if (line ~ /: [|>][+-]?$/) scalar = col
			}
		}
		BEGIN { scalar = -1 }
		END { exit bad }
	' "$wf" >&2
done

echo "== go vet"
go vet ./...

echo "== go test -race -shuffle=on"
# The differential suites run here with the rest: greedy evaluation against
# the evaluator it replaced (TestGreedyEvaluationMatchesReference), the joint
# search against the fork walk, pruning on against off, and the golden hashes.
go test -race -shuffle=on ./...

echo "== bench harness (vet + tests against this checkout's API)"
# bench/ is a module of its own, so ./... above does not reach it; an API
# break against the harness should fail here, not in the benchmark gate.
# The environment is bench/run.sh's; nothing under bench/ is written.
(
	export GOFLAGS=-mod=mod GOPROXY=off GOWORK=off
	go -C bench vet . && go -C bench test .
)
# The in-process twins of the benchmark's db-crowd, wide-greedy and
# squeeze-small workloads: a few cycles, so the points the harness's numbers
# are explained with cannot rot. Each is one benchmark, reporting the
# predictions or joint-search trials a cycle makes, which repeat exactly.
go test -run '^$' -bench 'CrowdCycle|WideGreedyCycle|SqueezeCycle' -benchtime 20x ./internal/core

echo "== harmonyctl lint (examples/specs against the reference cluster)"
sarif_out="${SARIF_OUT:-$(mktemp)}"
lint_sarif=$(mktemp)
specs=$(find examples/specs -name '*.rsl' ! -name cluster.rsl | sort)
# shellcheck disable=SC2086 # word-split the spec list on purpose
go run ./cmd/harmonyctl lint -sarif -cluster examples/specs/cluster.rsl $specs > "$lint_sarif"
sarifs="$lint_sarif"

echo "== harmonylint (project invariant analyzers, see docs/ANALYZERS.md)"
lint_failed=0
hl_sarif=$(mktemp)
hl_rc=0
go run ./cmd/harmonylint -sarif ./... > "$hl_sarif" || hl_rc=$?
case "$hl_rc" in
0)
	echo "harmonylint clean"
	sarifs="$sarifs $hl_sarif"
	;;
1)
	# Findings: the SARIF on stdout is still valid and gets merged so the
	# artifact carries the diagnostics; the gate fails after the merge.
	echo "harmonylint found unsuppressed diagnostics (merged into SARIF)" >&2
	sarifs="$sarifs $hl_sarif"
	lint_failed=1
	;;
*)
	echo "harmonylint failed to run (exit $hl_rc)" >&2
	exit "$hl_rc"
	;;
esac

# staticcheck and govulncheck run at pinned versions when the module proxy
# is reachable; offline (sandboxed / air-gapped) environments skip them
# rather than fail, since every other stage is hermetic. Their SARIF runs
# are merged into the same artifact the lint stage publishes. CI persists
# $TOOLS_BIN across runs (actions/cache keyed on the pinned versions), so
# the pinned binaries install once and are reused until the pins move.
tools_failed=0
tools_bin="${TOOLS_BIN:-$(mktemp -d)}"
mkdir -p "$tools_bin"

echo "== staticcheck (pinned; skipped when the module proxy is unreachable)"
if [ -x "$tools_bin/staticcheck" ] || GOBIN="$tools_bin" GOFLAGS= go install "honnef.co/go/tools/cmd/staticcheck@${STATICCHECK_VERSION:-2025.1.1}" >/dev/null 2>&1; then
	sc_sarif=$(mktemp)
	if "$tools_bin/staticcheck" -f sarif ./... > "$sc_sarif"; then
		echo "staticcheck clean"
	else
		echo "staticcheck found issues (merged into SARIF)" >&2
		tools_failed=1
	fi
	sarifs="$sarifs $sc_sarif"
else
	echo "staticcheck unavailable; skipping"
fi

echo "== govulncheck (pinned; skipped when the module proxy is unreachable)"
if [ -x "$tools_bin/govulncheck" ] || GOBIN="$tools_bin" GOFLAGS= go install "golang.org/x/vuln/cmd/govulncheck@${GOVULNCHECK_VERSION:-v1.1.4}" >/dev/null 2>&1; then
	gv_sarif=$(mktemp)
	if "$tools_bin/govulncheck" -format sarif ./... > "$gv_sarif"; then
		echo "govulncheck clean"
	else
		echo "govulncheck found issues (merged into SARIF)" >&2
		tools_failed=1
	fi
	sarifs="$sarifs $gv_sarif"
else
	echo "govulncheck unavailable; skipping"
fi

# shellcheck disable=SC2086 # word-split the SARIF list on purpose
go run ./scripts/mergesarif "$sarif_out" $sarifs
echo "merged SARIF written to $sarif_out"

if [ "$lint_failed" -ne 0 ]; then
	echo "check.sh: harmonylint found unsuppressed diagnostics" >&2
	exit 1
fi
if [ "$tools_failed" -ne 0 ]; then
	echo "check.sh: staticcheck/govulncheck found issues" >&2
	exit 1
fi

echo "check.sh: all clean"
