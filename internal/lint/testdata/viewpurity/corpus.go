// Package corpus exercises the viewpurity analyzer: functions handed a
// resource.View snapshot must stay inside it.
package corpus

import "harmony/internal/resource"

type evalCtx struct {
	ledger *resource.Ledger
}

// scoreOnView reads through the snapshot and reserves against the view
// itself (copy-on-write into the fork): all allowed.
func scoreOnView(v resource.View, owner string) int {
	n := len(v.Nodes())
	if claim, err := v.Reserve(owner, nil, nil); err == nil {
		_ = v.Release(claim.ID)
	}
	return n
}

// mutateLedger touches live topology state from snapshot context.
func (e *evalCtx) mutateLedger(v resource.View, host string) {
	_ = len(v.Nodes())
	e.ledger.EvictHost(host) // want "calls e.ledger.EvictHost on the live ledger"
}

// escapeAssert defeats the snapshot by asserting the view back to the
// concrete ledger.
func escapeAssert(v resource.View) {
	if l, ok := v.(*resource.Ledger); ok { // want "type-asserts to"
		_ = l.Nodes()
	}
}

// escapeSwitch does the same through a type switch.
func escapeSwitch(v resource.View) int {
	switch v.(type) {
	case *resource.Ledger: // want "type-switches on"
		return 1
	default:
		return 0
	}
}

// mutateOutsideView runs with no view in scope, so live-ledger writes are
// this function's own business.
func (e *evalCtx) mutateOutsideView(host string) {
	e.ledger.EvictHost(host)
}
