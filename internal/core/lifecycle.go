// Node lifecycle: the controller's reaction to machines failing, draining
// for maintenance, and returning to service. A down node's claims are
// evicted and the affected applications re-harmonized; ones that cannot be
// re-placed are parked in a degraded state (no resources, excluded from the
// objective) and re-admitted automatically once capacity returns.

package core

import (
	"fmt"
	"time"

	"harmony/internal/resource"
	"harmony/internal/simclock"
)

// MarkNodeDown records a machine failure: every claim touching the host is
// evicted, the affected applications are re-harmonized onto the surviving
// capacity, and any application that no longer fits is degraded with an
// Evicted event instead of being silently dropped. Idempotent for a node
// already down.
func (c *Controller) MarkNodeDown(hostname string) ([]Event, error) {
	return c.markNodeDownAt(hostname, c.cfg.Clock.Now())
}

// markNodeDownAt is MarkNodeDown at an explicit decision time, the
// deterministic entry point the replication Apply path uses.
func (c *Controller) markNodeDownAt(hostname string, now time.Duration) (events []Event, err error) {
	defer func() { c.publish(events) }()
	if err := c.ledger.SetNodeHealth(hostname, resource.HealthDown); err != nil {
		return nil, err
	}
	evicted := c.ledger.EvictHost(hostname)
	affected := c.dropEvictedClaims(evicted)
	events = c.reevaluate(now, 0)
	// Anything still claimless after re-harmonization does not fit on the
	// survivors: degrade it and tell listeners.
	var newlyDegraded bool
	for _, app := range affected {
		if app.claim != nil || app.degraded {
			continue
		}
		app.degraded = true
		newlyDegraded = true
		events = append(events, Event{
			Instance: app.instance,
			App:      app.bundle.App,
			Bundle:   app.bundle.Name,
			At:       now,
			Evicted:  true,
		})
	}
	if newlyDegraded {
		// Under the exhaustive policy an unplaceable evictee vetoes every
		// joint combination; with it parked, the survivors get a real pass.
		events = append(events, c.reevaluate(now, 0)...)
	}
	return events, nil
}

// dropEvictedClaims maps evicted claims back to their applications
// and clears the dead placement state.
func (c *Controller) dropEvictedClaims(evicted []*resource.Claim) []*appState {
	if len(evicted) == 0 {
		return nil
	}
	byClaim := make(map[uint64]bool, len(evicted))
	for _, cl := range evicted {
		byClaim[cl.ID] = true
	}
	var affected []*appState
	for _, id := range c.order {
		app := c.apps[id]
		if app.claim == nil || !byClaim[app.claim.ID] {
			continue
		}
		app.claim = nil
		app.assignment, app.placed = nil, nil
		app.predicted = 0
		_ = c.ns.Delete(app.owner())
		affected = append(affected, app)
	}
	return affected
}

// DrainNode marks a machine as draining: it accepts no new placements, and
// every application currently on it is moved to the surviving capacity when
// a feasible alternative exists. Applications with no alternative stay put
// with a warning — a draining node still works, unlike a down one.
func (c *Controller) DrainNode(hostname string) ([]Event, error) {
	return c.drainNodeAt(hostname, c.cfg.Clock.Now())
}

// drainNodeAt is DrainNode at an explicit decision time (see markNodeDownAt).
func (c *Controller) drainNodeAt(hostname string, now time.Duration) (events []Event, err error) {
	defer func() { c.publish(events) }()
	if err := c.ledger.SetNodeHealth(hostname, resource.HealthDraining); err != nil {
		return nil, err
	}
	for _, id := range append([]int(nil), c.order...) {
		app, ok := c.apps[id]
		if !ok || app.claim == nil || !claimTouches(app.claim, hostname) {
			continue
		}
		// The matcher refuses non-up nodes, so the best choice found here is
		// guaranteed off the draining host. Granularity is bypassed: drain is
		// an operator action, not optimizer churn.
		best, err := c.bestChoice(app, now, false)
		if err != nil {
			c.warn(fmt.Sprintf("core: %s: no placement off draining %s: %v", app.owner(), hostname, err))
			continue
		}
		ev, err := c.adopt(app, best, now, false)
		if err != nil {
			c.warn(fmt.Sprintf("core: %s: move off draining %s failed: %v", app.owner(), hostname, err))
			continue
		}
		events = append(events, ev)
	}
	return events, nil
}

// MarkNodeUp returns a machine to service and re-harmonizes: degraded
// applications are re-admitted when they now fit, and placed applications
// may migrate onto the recovered capacity.
func (c *Controller) MarkNodeUp(hostname string) ([]Event, error) {
	return c.markNodeUpAt(hostname, c.cfg.Clock.Now())
}

// markNodeUpAt is MarkNodeUp at an explicit decision time (see markNodeDownAt).
func (c *Controller) markNodeUpAt(hostname string, now time.Duration) (events []Event, err error) {
	defer func() { c.publish(events) }()
	if err := c.ledger.SetNodeHealth(hostname, resource.HealthUp); err != nil {
		return nil, err
	}
	return c.reevaluate(now, 0), nil
}

// NodeHealth reports a machine's lifecycle state.
func (c *Controller) NodeHealth(hostname string) (resource.NodeHealth, error) {
	return c.ledger.NodeHealth(hostname)
}

// Ledger exposes the controller's resource ledger (read-mostly: tests and
// the chaos harness use it for conservation checking).
func (c *Controller) Ledger() *resource.Ledger { return c.ledger }

// Clock exposes the controller's virtual clock (the replication layer reads
// it to stamp log entries with the decision time).
func (c *Controller) Clock() *simclock.Clock { return c.cfg.Clock }

// claimTouches reports whether a claim reserves anything on host.
func claimTouches(cl *resource.Claim, host string) bool {
	for _, nc := range cl.Nodes {
		if nc.Hostname == host {
			return true
		}
	}
	for _, lc := range cl.Links {
		if lc.A == host || lc.B == host {
			return true
		}
	}
	return false
}
