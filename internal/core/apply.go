// Replication support: the controller as a deterministic state machine.
// Apply executes one replog.Entry with the entry's virtual time standing in
// for the local clock, so a follower replaying the leader's log — same
// entries, same order, same times — reconstructs a bit-identical ledger,
// namespace and app table (proved by TestRecordReplay* in replay_test.go).
// State/Restore serialize the full controller state for the periodic
// snapshots that bound replay.

package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"harmony/internal/match"
	"harmony/internal/namespace"
	"harmony/internal/replog"
	"harmony/internal/resource"
	"harmony/internal/rsl"
)

// ApplyResult reports what an applied entry did.
type ApplyResult struct {
	// Instance is the instance assigned by OpRegister (0 otherwise).
	Instance int
	// Events are the reconfiguration events the operation produced.
	Events []Event
}

// choiceFromLog converts the wire representation.
func choiceFromLog(ch *replog.Choice) Choice {
	if ch == nil {
		return Choice{}
	}
	return Choice{Option: ch.Option, Vars: ch.Vars, Grants: ch.Grants}
}

// ChoiceToLog converts a controller choice to its wire representation.
func ChoiceToLog(ch Choice) *replog.Choice {
	return &replog.Choice{Option: ch.Option, Vars: ch.Vars, Grants: ch.Grants}
}

// Apply executes one replicated log entry deterministically. The clock is
// advanced to the entry's time first (firing any due scheduled events), and
// the entry's time — never the local clock — is the operation's decision
// time, so leader and followers compute identical friction/granularity
// gating even when their clocks drift. Failed operations (e.g. no feasible
// option) fail identically on every replica; the error is returned for the
// leader to report to its client.
func (c *Controller) Apply(e *replog.Entry) (*ApplyResult, error) {
	if e == nil {
		return nil, errors.New("core: apply nil entry")
	}
	c.cfg.Clock.AdvanceTo(e.Time)
	switch e.Op {
	case replog.OpRegister:
		bundles, _, err := rsl.DecodeScript(e.RSL)
		if err != nil {
			return nil, fmt.Errorf("core: apply register: %w", err)
		}
		if len(bundles) != 1 {
			return nil, fmt.Errorf("core: apply register: %d bundles, want 1", len(bundles))
		}
		inst, events, err := c.registerAt(bundles[0], e.RSL, e.Time)
		if err != nil {
			return nil, err
		}
		return &ApplyResult{Instance: inst, Events: events}, nil
	case replog.OpUnregister:
		events, err := c.unregisterAt(e.Instance, e.Time)
		if err != nil {
			return nil, err
		}
		return &ApplyResult{Events: events}, nil
	case replog.OpReevaluate:
		return &ApplyResult{Events: c.reevaluateAt(e.Time)}, nil
	case replog.OpForceChoice:
		ev, err := c.forceChoiceAt(e.Instance, choiceFromLog(e.Choice), e.Time)
		if err != nil {
			return nil, err
		}
		res := &ApplyResult{}
		if ev != nil {
			res.Events = []Event{*ev}
		}
		return res, nil
	case replog.OpNodeState:
		h, err := resource.ParseNodeHealth(e.State)
		if err != nil {
			return nil, err
		}
		var events []Event
		switch h {
		case resource.HealthDown:
			events, err = c.markNodeDownAt(e.Hostname, e.Time)
		case resource.HealthDraining:
			events, err = c.drainNodeAt(e.Hostname, e.Time)
		case resource.HealthUp:
			events, err = c.markNodeUpAt(e.Hostname, e.Time)
		default:
			err = fmt.Errorf("core: apply node state: unhandled health %v", h)
		}
		if err != nil {
			return nil, err
		}
		return &ApplyResult{Events: events}, nil
	default:
		return nil, fmt.Errorf("core: apply: op %q is not a controller operation", e.Op)
	}
}

// PersistedApp is one application's serialized state.
type PersistedApp struct {
	// Instance is the controller-assigned id.
	Instance int `json:"instance"`
	// Source is the RSL text the bundle decodes from.
	Source string `json:"source"`
	// Choice is the active configuration.
	Choice Choice `json:"choice"`
	// Assignment is the concrete placement (nil when degraded).
	Assignment *match.Assignment `json:"assignment,omitempty"`
	// Claim is the ledger reservation backing the assignment (nil when
	// degraded), restored with its original ID.
	Claim *resource.Claim `json:"claim,omitempty"`
	// PredictedSeconds is the latest response-time projection.
	PredictedSeconds float64 `json:"predictedSeconds"`
	// LastSwitch / RegisteredAt / Switches preserve granularity gating.
	LastSwitch   time.Duration `json:"lastSwitch"`
	RegisteredAt time.Duration `json:"registeredAt"`
	Switches     int           `json:"switches"`
	// NamespacePredicted preserves the published <owner>.predicted value,
	// which is written at adoption time and so can lag PredictedSeconds
	// (refreshed on every ledger change); nil when unpublished.
	NamespacePredicted *float64 `json:"nsPredicted,omitempty"`
	// Degraded marks an evicted, unplaced application.
	Degraded bool `json:"degraded,omitempty"`
}

// PersistedState is the controller's full serialized state, embedded in
// replication snapshots.
type PersistedState struct {
	// Now is the virtual time the snapshot was taken at.
	Now time.Duration `json:"now"`
	// NextInstance is the last instance id issued.
	NextInstance int `json:"nextInstance"`
	// ClaimSeq is the last ledger claim id issued.
	ClaimSeq uint64 `json:"claimSeq"`
	// NodeHealth records non-up nodes (hostname → health string).
	NodeHealth map[string]string `json:"nodeHealth,omitempty"`
	// Apps lists applications in registration order.
	Apps []PersistedApp `json:"apps"`
}

// State serializes the controller for a replication snapshot. It fails if
// any application was registered without RSL source (only possible outside
// the replicated Apply path, which always records source).
func (c *Controller) State() (*PersistedState, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := &PersistedState{
		Now:          c.cfg.Clock.Now(),
		NextInstance: c.nextInstance,
		ClaimSeq:     c.ledger.ClaimSeq(),
	}
	for _, ns := range c.ledger.Nodes() {
		if ns.Health != resource.HealthUp {
			if st.NodeHealth == nil {
				st.NodeHealth = make(map[string]string)
			}
			st.NodeHealth[ns.Node.Hostname] = ns.Health.String()
		}
	}
	for _, id := range c.order {
		a := c.apps[id]
		if a.source == "" {
			return nil, fmt.Errorf("core: state: instance %d has no RSL source", id)
		}
		pa := PersistedApp{
			Instance:         a.instance,
			Source:           a.source,
			Choice:           a.choice,
			Assignment:       a.assignment,
			PredictedSeconds: a.predicted,
			LastSwitch:       a.lastSwitch,
			RegisteredAt:     a.registeredAt,
			Switches:         a.switches,
			Degraded:         a.degraded,
		}
		if a.claim != nil {
			cp := *a.claim
			pa.Claim = &cp
		}
		if v, err := c.ns.GetNum(a.owner() + ".predicted"); err == nil {
			pa.NamespacePredicted = &v
		}
		st.Apps = append(st.Apps, pa)
	}
	return st, nil
}

// EncodeState is State as JSON, convenient for snapshot payloads.
func (c *Controller) EncodeState() ([]byte, error) {
	st, err := c.State()
	if err != nil {
		return nil, err
	}
	return json.Marshal(st)
}

// Restore replaces the controller's state with a previously serialized one
// (a follower installing a leader snapshot, or a replica restarting from
// disk). Existing applications and claims are discarded first, so Restore
// works on a controller at any point in its life, not just a fresh one.
func (c *Controller) Restore(st *PersistedState) error {
	if st == nil {
		return errors.New("core: restore nil state")
	}
	// Advance the clock first, outside the controller lock (due scheduled
	// events may call back into the controller).
	c.cfg.Clock.AdvanceTo(st.Now)
	c.mu.Lock()
	defer c.mu.Unlock()
	// Wipe current state.
	for _, id := range c.order {
		a := c.apps[id]
		if a.claim != nil {
			_ = c.ledger.Release(a.claim.ID)
		}
		_ = c.ns.Delete(a.owner())
	}
	c.apps = make(map[int]*appState)
	c.order = nil
	for _, ns := range c.ledger.Nodes() {
		if ns.Health != resource.HealthUp {
			_ = c.ledger.SetNodeHealth(ns.Node.Hostname, resource.HealthUp)
		}
	}

	// Install the persisted state: health first so restored claims validate
	// against the same capacity picture the source ledger had (claims are
	// restored with original IDs regardless of health — they were already
	// held when the snapshot was taken).
	for host, hs := range st.NodeHealth {
		h, err := resource.ParseNodeHealth(hs)
		if err != nil {
			return fmt.Errorf("core: restore: node %s: %w", host, err)
		}
		if err := c.ledger.SetNodeHealth(host, h); err != nil {
			return fmt.Errorf("core: restore: node %s: %w", host, err)
		}
	}
	for _, pa := range st.Apps {
		bundles, _, err := rsl.DecodeScript(pa.Source)
		if err != nil {
			return fmt.Errorf("core: restore: instance %d: %w", pa.Instance, err)
		}
		if len(bundles) != 1 {
			return fmt.Errorf("core: restore: instance %d: %d bundles, want 1", pa.Instance, len(bundles))
		}
		app := &appState{
			instance:     pa.Instance,
			bundle:       bundles[0],
			ownerPath:    namespace.InstancePath(bundles[0].App, pa.Instance),
			source:       pa.Source,
			choice:       pa.Choice,
			assignment:   pa.Assignment,
			predicted:    pa.PredictedSeconds,
			lastSwitch:   pa.LastSwitch,
			registeredAt: pa.RegisteredAt,
			switches:     pa.Switches,
			degraded:     pa.Degraded,
		}
		if pa.Claim != nil {
			cp := *pa.Claim
			if err := c.ledger.RestoreClaim(cp); err != nil {
				return fmt.Errorf("core: restore: instance %d: %w", pa.Instance, err)
			}
			app.claim = &cp
		}
		c.apps[app.instance] = app
		c.order = append(c.order, app.instance)
		if app.assignment != nil {
			c.writeNamespaceLocked(app)
			if pa.NamespacePredicted != nil {
				_ = c.ns.SetNum(app.owner()+".predicted", *pa.NamespacePredicted)
			}
		}
	}
	c.ledger.SetClaimSeq(st.ClaimSeq)
	c.nextInstance = st.NextInstance
	return nil
}

// DecodeState parses a serialized controller state.
func DecodeState(data []byte) (*PersistedState, error) {
	var st PersistedState
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("core: decode state: %w", err)
	}
	return &st, nil
}
