// Package core implements Harmony's adaptation controller — "the heart of
// the system" (Section 2 of "Exposing Application Alternatives"). The
// controller gathers information about applications and the environment,
// projects the effects of proposed changes, and weighs competing costs and
// expected benefits. Applications export tuning bundles; the controller
// chooses among exported options to optimize an overarching objective
// function (mean response time by default), re-evaluating existing
// applications whenever jobs enter or leave the system and on a periodic
// basis (Sections 4.2-4.3), subject to frictional switching costs and
// granularity constraints.
package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"harmony/internal/cluster"
	"harmony/internal/match"
	"harmony/internal/metric"
	"harmony/internal/namespace"
	"harmony/internal/objective"
	"harmony/internal/predict"
	"harmony/internal/resource"
	"harmony/internal/rsl"
	"harmony/internal/simclock"
)

// Errors reported by the controller.
var (
	// ErrUnknownInstance is returned for operations on unregistered apps.
	ErrUnknownInstance = errors.New("core: unknown application instance")
	// ErrNoFeasibleOption is returned when no option of a bundle fits.
	ErrNoFeasibleOption = errors.New("core: no feasible option")
	// ErrSearchBudget is returned when an arrival fits nowhere beside the
	// applications already placed, and the joint search that would make room
	// for it spent its trial budget before it found a combination that places
	// everybody. It wraps ErrNoFeasibleOption.
	ErrSearchBudget = fmt.Errorf("%w within the joint search budget", ErrNoFeasibleOption)
)

// Choice is one concrete configuration of a bundle: an option plus values
// for its variables and memory grants above declared minima.
type Choice struct {
	// Option is the chosen option name.
	Option string
	// Vars binds each option variable (e.g. workerNodes) to a value.
	Vars map[string]float64
	// Grants raises OpMin memory tags, keyed by option-local node name.
	Grants map[string]float64
}

// Equal reports whether two choices configure the application identically.
func (c Choice) Equal(o Choice) bool {
	if c.Option != o.Option || len(c.Vars) != len(o.Vars) || len(c.Grants) != len(o.Grants) {
		return false
	}
	for k, v := range c.Vars {
		if o.Vars[k] != v {
			return false
		}
	}
	for k, v := range c.Grants {
		if o.Grants[k] != v {
			return false
		}
	}
	return true
}

// String renders the choice compactly.
func (c Choice) String() string {
	s := c.Option
	keys := make([]string, 0, len(c.Vars))
	for k := range c.Vars {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		s += fmt.Sprintf(" %s=%g", k, c.Vars[k])
	}
	keys = keys[:0]
	for k := range c.Grants {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		s += fmt.Sprintf(" %s.memory=%g", k, c.Grants[k])
	}
	return s
}

// Event describes a configuration decision delivered to listeners (and,
// through the server, to the application's Harmony variables).
type Event struct {
	// Instance is the controller-assigned application instance id.
	Instance int
	// App and Bundle identify the reconfigured bundle.
	App, Bundle string
	// Choice is the new configuration.
	Choice Choice
	// Assignment is the concrete resource placement.
	Assignment *match.Assignment
	// PredictedSeconds is the controller's response-time projection.
	PredictedSeconds float64
	// At is the virtual time of the decision.
	At time.Duration
	// Initial marks the first configuration after registration.
	Initial bool
	// Evicted marks an application that lost its placement to a node
	// failure and could not be re-placed: it holds no resources and is
	// degraded until capacity returns (Choice and Assignment are zero).
	Evicted bool
}

// Listener receives reconfiguration events. Callbacks run on the goroutine
// that called the mutator, after the controller has published the view the
// events lead to, and must not call a mutator.
type Listener func(Event)

// Config parameterizes the controller.
type Config struct {
	// Cluster provides the resources under management. Required.
	Cluster *cluster.Cluster
	// Clock drives granularity gating. Required.
	Clock *simclock.Clock
	// Objective is minimized across all applications; default
	// objective.MeanResponseTime. The mutators call it, and it must not call
	// back into the controller.
	Objective objective.Func
	// Bus optionally receives decision and prediction metrics.
	Bus *metric.Bus
	// Exhaustive switches the optimizer from the paper's greedy
	// one-bundle-at-a-time policy to a full cross-product search (used by
	// the A2 ablation).
	Exhaustive bool
	// IgnoreFriction disables frictional-cost gating so every nominal
	// improvement triggers a switch (the A1 ablation baseline).
	IgnoreFriction bool
	// EvalWorkers is ignored: candidates are evaluated one after another on
	// one trial state (see docs/OPTIMIZER.md, "Serial evaluation").
	//
	// Deprecated: it remains so that configurations that set it still
	// compile, and has no effect.
	EvalWorkers int
}

type appState struct {
	instance int
	bundle   *rsl.BundleSpec
	// ownerPath is the app's namespace path and claim owner, built once:
	// every evaluation names every application.
	ownerPath string
	// source is the RSL text the bundle was decoded from, kept so replicated
	// snapshots (see apply.go) can rebuild the bundle on a follower. Empty
	// for bundles registered directly with a decoded spec.
	source     string
	choice     Choice
	assignment *match.Assignment
	// placed is assignment resolved to ledger indices; read it through
	// placedFor, which notices when it is missing or out of date.
	placed       *predict.Placement
	claim        *resource.Claim
	predicted    float64
	lastSwitch   time.Duration
	registeredAt time.Duration
	switches     int
	// degraded marks an app evicted by a node failure that could not be
	// re-placed; it holds no claim and is excluded from the objective until
	// a re-evaluation finds room for it again.
	degraded bool
	// static caches the bundle's choice enumeration and per-choice analysis
	// (bundles are immutable after registration).
	static *bundleStatic
}

func (a *appState) owner() string { return a.ownerPath }

// Controller is the Harmony adaptation controller: one central decision
// maker, and a single-writer state machine. The mutators — Register,
// Unregister, Reevaluate, ForceChoice, MarkNodeDown, DrainNode, MarkNodeUp,
// Apply and Restore — run on one goroutine at a time. Under a server that
// goroutine is the replica's loop, and the only way in is the replicated log:
// nothing else may call a mutator on a controller a server fronts.
//
// Every mutator ends by publishing an immutable view of the state it left,
// before any listener hears of its events. The readers — Status, Apps,
// Objective, Bundles, ActiveInstances, CurrentChoice, EvaluationCount,
// JointTrials, JointBudgetHits, Predictions and Warnings — load
// that view and nothing else, so they may run on any goroutine, never wait for
// an optimizer pass, and always see one state. Subscribe may be called from
// any goroutine too.
type Controller struct {
	cfg     Config
	ledger  *resource.Ledger
	matcher *match.Matcher
	ns      *namespace.Tree

	// view is what the readers load; listeners is replaced, never modified.
	view      atomic.Pointer[view]
	listeners atomic.Pointer[[]Listener]

	// The writer's state, touched by the mutators alone.
	apps         map[int]*appState
	order        []int // registration order (lexical evaluation order)
	nextInstance int

	// pass is the greedy evaluations' pass state (see eval.go);
	// evaluations counts the evaluations opened on it.
	pass        passState
	evaluations uint64
	// predictions counts model evaluations (Predictions).
	predictions uint64
	// jointTrials counts the choices the joint search has tried (JointTrials),
	// jointBudgetHits the searches that stopped at jointBudget, how many trials
	// one search may make: jointTrialBudget, which in-package tests lower.
	jointTrials     uint64
	jointBudgetHits uint64
	jointBudget     int
	// warnings is a bounded ring of recent controller warnings. warn replaces
	// it rather than writing into it, so a published view may share it.
	warnings []string
}

// view is the controller's state as one mutator left it. Nothing in it is
// written after it is published.
type view struct {
	objective       float64
	apps            []Snapshot        // registration order
	bundles         []*rsl.BundleSpec // registration order
	jointTrials     uint64
	jointBudgetHits uint64
	predictions     uint64
	warnings        []string
}

// maxWarnings bounds the warning ring buffer.
const maxWarnings = 64

// warn records a warning, dropping the oldest once maxWarnings are held.
func (c *Controller) warn(msg string) {
	kept := c.warnings[max(0, len(c.warnings)-maxWarnings+1):]
	c.warnings = append(slices.Clip(kept), msg)
}

// Warnings returns the most recent controller warnings, oldest first.
func (c *Controller) Warnings() []string { return slices.Clone(c.view.Load().warnings) }

// New builds a controller over the cluster. The clock is not started here;
// callers drive it.
func New(cfg Config) (*Controller, error) {
	if cfg.Cluster == nil {
		return nil, errors.New("core: config needs a cluster")
	}
	if cfg.Clock == nil {
		return nil, errors.New("core: config needs a clock")
	}
	if cfg.Objective == nil {
		cfg.Objective = objective.MeanResponseTime
	}
	ledger := cfg.Cluster.Ledger()
	c := &Controller{
		cfg:         cfg,
		ledger:      ledger,
		matcher:     match.New(ledger),
		ns:          namespace.New(),
		apps:        make(map[int]*appState),
		jointBudget: jointTrialBudget,
	}
	c.listeners.Store(new([]Listener))
	c.view.Store(c.buildView())
	return c, nil
}

// Namespace exposes the controller's shared namespace (Section 3.2).
func (c *Controller) Namespace() *namespace.Tree { return c.ns }

// Subscribe registers a reconfiguration listener for all applications. It may
// be called from any goroutine, including while a mutator runs; a mutator that
// has already started may or may not tell the new listener of its events.
func (c *Controller) Subscribe(fn Listener) error {
	if fn == nil {
		return errors.New("core: nil listener")
	}
	for {
		old := c.listeners.Load()
		next := append(slices.Clip(*old), fn)
		if c.listeners.CompareAndSwap(old, &next) {
			return nil
		}
	}
}

// Stop does nothing: the controller schedules no work of its own.
//
// Deprecated: it remains for the bench harness, which still calls it, and
// goes with the harness's shadow controller (ROADMAP item 7).
func (c *Controller) Stop() {}

// Register admits an application bundle (harmony_bundle_setup): the
// controller assigns an instance id, picks the best feasible choice for the
// new bundle while holding existing applications fixed, reserves resources,
// and then re-evaluates the options of existing applications (Section 4.3).
// The returned events start with the new application's initial
// configuration, followed by any reconfigurations of existing applications.
func (c *Controller) Register(bundle *rsl.BundleSpec) (int, []Event, error) {
	return c.registerAt(bundle, "", c.cfg.Clock.Now())
}

// registerAt is Register with an explicit decision time and the bundle's
// RSL source, the deterministic entry point the replication Apply path uses
// (the entry's virtual time stands in for the local clock).
func (c *Controller) registerAt(bundle *rsl.BundleSpec, source string, now time.Duration) (inst int, events []Event, err error) {
	defer func() { c.publish(events) }()
	if bundle == nil || len(bundle.Options) == 0 {
		return 0, nil, errors.New("core: bundle with no options")
	}
	c.nextInstance++
	inst = c.nextInstance
	app := &appState{
		instance:     inst,
		bundle:       bundle,
		ownerPath:    namespace.InstancePath(bundle.App, inst),
		source:       source,
		registeredAt: now,
		lastSwitch:   -1,
	}

	best, err := c.bestChoice(app, now, true)
	if err == nil {
		ev, aerr := c.adopt(app, best, now, true)
		if aerr != nil {
			c.nextInstance--
			return 0, nil, aerr
		}
		c.apps[inst] = app
		c.order = append(c.order, inst)
		events = append(events, ev)

		// "After defining the initial options for a new application, we
		// re-evaluate the options for existing applications."
		return inst, append(events, c.reevaluate(now, inst)...), nil
	}
	if !errors.Is(err, ErrNoFeasibleOption) || len(c.order) == 0 {
		c.nextInstance--
		return 0, nil, err
	}
	// Nothing fits while existing applications hold their resources:
	// change existing allocations to accommodate the new application
	// ("applications written to Harmony's interface ... enable changing
	// existing resource allocations in order to accommodate new
	// applications", Section 1). A joint search over all bundles finds
	// the accommodation.
	c.apps[inst] = app
	c.order = append(c.order, inst)
	events, exhausted := c.reevaluateExhaustive(now, 0, true)
	if app.claim == nil {
		// Even the joint search could not place it: roll back.
		delete(c.apps, inst)
		c.order = c.order[:len(c.order)-1]
		c.nextInstance--
		if exhausted {
			return 0, nil, fmt.Errorf("%w of %d trials for %s", ErrSearchBudget, c.jointBudget, bundle.App)
		}
		return 0, nil, err
	}
	for i := range events {
		if events[i].Instance == inst {
			events[i].Initial = true
		}
	}
	return inst, events, nil
}

// Unregister removes an application (harmony_end), releases its resources
// and re-evaluates the remaining applications.
func (c *Controller) Unregister(instance int) ([]Event, error) {
	return c.unregisterAt(instance, c.cfg.Clock.Now())
}

// unregisterAt is Unregister at an explicit decision time (see registerAt).
func (c *Controller) unregisterAt(instance int, now time.Duration) (events []Event, err error) {
	defer func() { c.publish(events) }()
	app, ok := c.apps[instance]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownInstance, instance)
	}
	if app.claim != nil {
		if err := c.ledger.Release(app.claim.ID); err != nil {
			return nil, fmt.Errorf("core: release on unregister: %w", err)
		}
	}
	_ = c.ns.Delete(app.owner())
	delete(c.apps, instance)
	c.endPass()
	for i, id := range c.order {
		if id == instance {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
	return c.reevaluate(now, 0), nil
}

// Reevaluate runs one pass of the paper's greedy optimization over all
// registered applications (triggered by events or periodically).
func (c *Controller) Reevaluate() []Event {
	return c.reevaluateAt(c.cfg.Clock.Now())
}

// reevaluateAt is Reevaluate at an explicit decision time (see registerAt).
func (c *Controller) reevaluateAt(now time.Duration) []Event {
	events := c.reevaluate(now, 0)
	c.publish(events)
	return events
}

// publish ends every mutator: it stores the view of the state the mutator
// left, and only then hands the mutator's events to the listeners and the
// bus, so whoever is told of an event and then reads the controller sees at
// least the state the event describes.
func (c *Controller) publish(events []Event) {
	c.view.Store(c.buildView())
	listeners := *c.listeners.Load()
	for _, ev := range events {
		for _, fn := range listeners {
			fn(ev)
		}
		if c.cfg.Bus != nil {
			name := fmt.Sprintf("%s.%d.predicted", ev.App, ev.Instance)
			_ = c.cfg.Bus.ReportValue(name, ev.PredictedSeconds, ev.At)
		}
	}
}

// buildView captures the state for the readers. Degraded apps hold no
// resources and have no meaningful prediction, so they do not contribute to
// the objective.
func (c *Controller) buildView() *view {
	v := &view{
		apps:            make([]Snapshot, 0, len(c.order)),
		bundles:         make([]*rsl.BundleSpec, 0, len(c.order)),
		jointTrials:     c.jointTrials,
		jointBudgetHits: c.jointBudgetHits,
		predictions:     c.predictions,
		warnings:        c.warnings,
	}
	jobs := make([]objective.JobPrediction, 0, len(c.order))
	for _, id := range c.order {
		a := c.apps[id]
		var hosts []string
		if a.assignment != nil {
			hosts = a.assignment.Hosts()
		}
		v.apps = append(v.apps, Snapshot{
			Instance:         a.instance,
			App:              a.bundle.App,
			Bundle:           a.bundle.Name,
			Choice:           a.choice,
			Hosts:            hosts,
			PredictedSeconds: a.predicted,
			Switches:         a.switches,
			Degraded:         a.degraded,
		})
		v.bundles = append(v.bundles, a.bundle)
		if !a.degraded {
			jobs = append(jobs, objective.JobPrediction{App: a.owner(), Seconds: a.predicted})
		}
	}
	v.objective = c.cfg.Objective(jobs)
	return v
}

// Objective reports the current objective value over predicted times.
func (c *Controller) Objective() float64 { return c.view.Load().objective }

// Status reports the objective and the applications (Objective and Apps) as
// of one state: both come from one published view.
func (c *Controller) Status() (objective float64, apps []Snapshot) {
	v := c.view.Load()
	return v.objective, slices.Clone(v.apps)
}

// Snapshot describes one application's current state.
type Snapshot struct {
	// Instance, App, Bundle identify the application.
	Instance int
	App      string
	Bundle   string
	// Choice is the current configuration.
	Choice Choice
	// Hosts are the machines in use.
	Hosts []string
	// PredictedSeconds is the latest projection.
	PredictedSeconds float64
	// Switches counts reconfigurations since registration.
	Switches int
	// Degraded marks an app evicted by node failure and not yet re-placed.
	Degraded bool
}

// Apps lists registered applications in registration order.
func (c *Controller) Apps() []Snapshot { return slices.Clone(c.view.Load().apps) }

// Bundles returns the registered option bundles in registration order, so
// workload-level analyses (package vet) can judge an incoming spec against
// the demand already admitted.
func (c *Controller) Bundles() []*rsl.BundleSpec { return slices.Clone(c.view.Load().bundles) }

// ClusterNodes describes the managed cluster as harmonyNode declarations,
// so spec analyses (package vet) can validate incoming bundles against the
// capacities actually on offer.
func (c *Controller) ClusterNodes() []*rsl.NodeDecl {
	states := c.ledger.Nodes()
	out := make([]*rsl.NodeDecl, 0, len(states))
	for _, st := range states {
		n := st.Node
		out = append(out, &rsl.NodeDecl{
			Hostname: n.Hostname,
			Speed:    n.Speed,
			MemoryMB: n.MemoryMB,
			OS:       n.OS,
			CPUs:     n.CPUs,
		})
	}
	return out
}

// CurrentChoice reports an application's active configuration.
func (c *Controller) CurrentChoice(instance int) (Choice, error) {
	for _, a := range c.view.Load().apps {
		if a.Instance == instance {
			return a.Choice, nil
		}
	}
	return Choice{}, fmt.Errorf("%w: %d", ErrUnknownInstance, instance)
}

// ForceChoice imposes a specific configuration on an application,
// bypassing the optimizer. The paper's database experiment (Section 6)
// drives reconfiguration this way: "the controller was configured with a
// simple rule for changing configurations based on the number of active
// clients". Forcing the already-active choice is a no-op.
func (c *Controller) ForceChoice(instance int, ch Choice) (*Event, error) {
	return c.forceChoiceAt(instance, ch, c.cfg.Clock.Now())
}

// forceChoiceAt is ForceChoice at an explicit decision time (see registerAt).
func (c *Controller) forceChoiceAt(instance int, ch Choice, now time.Duration) (*Event, error) {
	var events []Event
	defer func() { c.publish(events) }()
	app, ok := c.apps[instance]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownInstance, instance)
	}
	if app.choice.Equal(ch) {
		return nil, nil
	}
	if app.bundle.Option(ch.Option) == nil {
		return nil, fmt.Errorf("core: option %q not in bundle %s", ch.Option, app.bundle.Name)
	}
	// Evaluate the forced choice hypothetically: the app's claim stays in
	// place until adoption, which handles release/rollback itself.
	p := c.openEvaluation(app)
	cand, err := c.evaluateChoice(p, ch, c.choiceStaticFor(app, ch))
	if err != nil {
		return nil, fmt.Errorf("core: force choice: %w", err)
	}
	if cand.frictionWarn != "" {
		c.warn(cand.frictionWarn)
	}
	ev, err := c.adopt(app, cand, now, false)
	if err != nil {
		return nil, err
	}
	events = []Event{ev}
	return &ev, nil
}

// ActiveInstances reports the registered instance ids of one application
// name (e.g. all DBclient instances), in registration order.
func (c *Controller) ActiveInstances(appName string) []int {
	var out []int
	for _, a := range c.view.Load().apps {
		if a.App == appName {
			out = append(out, a.Instance)
		}
	}
	return out
}

// predictCommitted predicts an application against the committed
// ledger state (all claims reserved), as captured in snap.
func (c *Controller) predictCommitted(snap *resource.Snapshot, a *appState) {
	opt := a.bundle.Option(a.choice.Option)
	pred, err := c.predictIndexed(predict.Indexed{View: snap}, opt, a.placedFor(snap))
	if err == nil {
		a.predicted = pred.Seconds
	}
}

// refreshPredictions recomputes every application's predicted time
// against current ledger state.
func (c *Controller) refreshPredictions(snap *resource.Snapshot) {
	for _, id := range c.order {
		if a := c.apps[id]; a.assignment != nil {
			c.predictCommitted(snap, a)
		}
	}
}

// adopt commits a choice for app: releases the app's previous claim
// (if any), reserves the candidate's resources, updates the namespace and
// returns the event. On reservation failure the previous placement is
// restored, so app.claim never points at a released claim: it either holds
// a live claim or is nil.
func (c *Controller) adopt(app *appState, cand candidate, now time.Duration, initial bool) (Event, error) {
	prevClaim, prevAsg := app.claim, app.assignment
	if prevClaim != nil {
		if err := c.ledger.Release(prevClaim.ID); err != nil {
			// The ledger does not know this claim; nothing is actually held.
			c.warn(fmt.Sprintf("core: %s holds stale claim %d: %v", app.owner(), prevClaim.ID, err))
			prevClaim = nil
		}
		app.claim = nil
	}
	claim, err := c.matcher.Reserve(app.owner(), cand.assignment)
	if err != nil {
		if prevClaim != nil {
			if rc, rerr := c.matcher.Reserve(app.owner(), prevAsg); rerr == nil {
				app.claim = rc
			} else {
				c.warn(fmt.Sprintf("core: %s: could not restore placement after failed adoption: %v", app.owner(), rerr))
			}
		}
		return Event{}, err
	}
	app.claim = claim
	app.assignment = cand.assignment
	app.degraded = false
	if !initial && !app.choice.Equal(cand.choice) {
		app.switches++
		app.lastSwitch = now
	}
	if initial {
		app.lastSwitch = now
	}
	app.choice = cand.choice
	// The snapshot is the one the next evaluation starts from.
	committed := c.ledger.Snapshot()
	c.refreshPredictions(committed)
	// A just-registered app is not in c.order yet; predict it directly.
	c.predictCommitted(committed, app)
	c.writeNamespace(app)
	return Event{
		Instance:         app.instance,
		App:              app.bundle.App,
		Bundle:           app.bundle.Name,
		Choice:           cand.choice,
		Assignment:       cand.assignment,
		PredictedSeconds: app.predicted,
		At:               now,
		Initial:          initial,
	}, nil
}

// writeNamespace publishes the app's configuration into the shared
// namespace using the paper's layout:
// application.instance.bundle.option plus per-resource tags.
func (c *Controller) writeNamespace(app *appState) {
	base := app.owner() + "." + app.bundle.Name
	_ = c.ns.Delete(base)
	_ = c.ns.SetStr(base+".option", app.choice.Option)
	optBase := base + "." + app.choice.Option
	for k, v := range app.choice.Vars {
		_ = c.ns.SetNum(optBase+"."+k, v)
	}
	counts := make(map[string]int)
	for _, n := range app.assignment.Nodes {
		counts[n.LocalName]++
	}
	seen := make(map[string]int)
	for _, n := range app.assignment.Nodes {
		local := n.LocalName
		if counts[local] > 1 {
			seen[local]++
			local = local + "." + strconv.Itoa(seen[local])
		}
		p := optBase + "." + local
		_ = c.ns.SetStr(p+".node", n.Hostname)
		_ = c.ns.SetNum(p+".memory", n.MemoryMB)
		_ = c.ns.SetNum(p+".seconds", n.Seconds)
	}
	_ = c.ns.SetNum(app.owner()+".predicted", app.predicted)
}
