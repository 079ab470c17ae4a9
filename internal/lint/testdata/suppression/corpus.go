// Package corpus exercises the //harmonylint:allow directive machinery; the
// assertions live in TestSuppressionDirectives rather than want comments.
package corpus

type phase string

const (
	phaseLoad  phase = "load"
	phaseRun   phase = "run"
	phaseDrain phase = "drain"
)

// justified is a justified allowance: the finding is produced but suppressed.
func justified(p phase) int {
	//harmonylint:allow protoexhaustive drain is only reached after run returns, which handles it
	switch p {
	case phaseLoad:
		return 1
	case phaseRun:
		return 2
	}
	return 0
}

// reasonless carries a directive with no justification: it suppresses
// nothing and is itself flagged.
func reasonless(p phase) int {
	//harmonylint:allow protoexhaustive
	switch p {
	case phaseLoad:
		return 1
	}
	return 0
}

// stale allows a check that reports nothing here, so the directive itself
// is flagged as unused.
func stale(p phase) int {
	//harmonylint:allow replaydeterminism left over from an old refactor
	switch p {
	case phaseLoad, phaseRun, phaseDrain:
		return 1
	}
	return 0
}
