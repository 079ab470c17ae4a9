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
	"sort"
	"strconv"
	"sync"
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
// that triggered the re-evaluation, after the controller lock is released.
type Listener func(Event)

// Config parameterizes the controller.
type Config struct {
	// Cluster provides the resources under management. Required.
	Cluster *cluster.Cluster
	// Clock drives granularity gating and periodic re-evaluation. Required.
	Clock *simclock.Clock
	// Objective is minimized across all applications; default
	// objective.MeanResponseTime. It is called with the controller lock
	// held and must not call back into the controller.
	Objective objective.Func
	// Bus optionally receives decision and prediction metrics.
	Bus *metric.Bus
	// ReevalInterval schedules periodic re-evaluation on the clock when
	// positive ("we continue this process on a periodic basis").
	ReevalInterval time.Duration
	// GrantSteps are the memory increments (MB) tried above OpMin minima;
	// default {0, 8, 16, 32}.
	GrantSteps []float64
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
	// WarnFunc, when set, receives controller warnings (friction
	// expressions that fail to evaluate, stale claims, failed rollbacks) as
	// they are raised. It runs with the controller lock held and must not
	// call back into the controller; nil keeps warnings in the ring buffer
	// returned by Warnings.
	WarnFunc func(string)
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
	placed       *resolved
	claim        *resource.Claim
	predicted    float64
	lastSwitch   time.Duration
	registeredAt time.Duration
	switches     int
	// degraded marks an app evicted by a node failure that could not be
	// re-placed; it holds no claim and is excluded from the objective until
	// a re-evaluation finds room for it again.
	degraded bool
	// static caches the bundle's choice enumeration and per-choice pruning
	// analysis (bundles are immutable after registration).
	static *bundleStatic
}

func (a *appState) owner() string { return a.ownerPath }

// Controller is the Harmony adaptation controller.
type Controller struct {
	cfg     Config
	ledger  *resource.Ledger
	matcher *match.Matcher
	ns      *namespace.Tree

	mu           sync.Mutex
	apps         map[int]*appState
	order        []int // registration order (lexical evaluation order)
	nextInstance int
	listeners    []Listener
	reevalTimer  simclock.EventID
	stopped      bool

	// evalCtx is the evaluation context, refilled for every evaluation
	// (one is alive at a time); evalContexts counts the refills.
	evalCtx      evalContext
	evalContexts uint64
	// predictions counts model evaluations (Predictions).
	predictions uint64
	// prune counts static-pruning activity (see internal/core/prune.go).
	prune PruneStats
	// disablePruning evaluates every enumerated choice: the reference the
	// differential tests hold pruning to.
	disablePruning bool
	// jointTrials counts the choices the joint search has tried (JointTrials).
	jointTrials uint64
	// warnings is a bounded ring of recent controller warnings.
	warnings []string
}

// maxWarnings bounds the warning ring buffer.
const maxWarnings = 64

// warnLocked records a warning and forwards it to Config.WarnFunc.
func (c *Controller) warnLocked(msg string) {
	if len(c.warnings) >= maxWarnings {
		copy(c.warnings, c.warnings[1:])
		c.warnings[len(c.warnings)-1] = msg
	} else {
		c.warnings = append(c.warnings, msg)
	}
	if c.cfg.WarnFunc != nil {
		c.cfg.WarnFunc(msg)
	}
}

// Warnings returns the most recent controller warnings, oldest first.
func (c *Controller) Warnings() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.warnings...)
}

// New builds a controller over the cluster. The clock is not started here;
// callers drive it (or call Start to schedule periodic re-evaluation).
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
	if cfg.GrantSteps == nil {
		cfg.GrantSteps = []float64{0, 8, 16, 32}
	}
	ledger := cfg.Cluster.Ledger()
	return &Controller{
		cfg:     cfg,
		ledger:  ledger,
		matcher: match.New(ledger),
		ns:      namespace.New(),
		apps:    make(map[int]*appState),
	}, nil
}

// SetObjective replaces the objective function at runtime ("in the future
// we plan to investigate other objective functions", Section 4.2). The
// next re-evaluation optimizes the new objective.
func (c *Controller) SetObjective(fn objective.Func) error {
	if fn == nil {
		return errors.New("core: nil objective")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cfg.Objective = fn
	return nil
}

// Namespace exposes the controller's shared namespace (Section 3.2).
func (c *Controller) Namespace() *namespace.Tree { return c.ns }

// Subscribe registers a reconfiguration listener for all applications.
func (c *Controller) Subscribe(fn Listener) error {
	if fn == nil {
		return errors.New("core: nil listener")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.listeners = append(c.listeners, fn)
	return nil
}

// Start schedules periodic re-evaluation on the clock when configured.
func (c *Controller) Start() error {
	if c.cfg.ReevalInterval <= 0 {
		return nil
	}
	return c.scheduleReeval()
}

func (c *Controller) scheduleReeval() error {
	id, err := c.cfg.Clock.ScheduleAfter(c.cfg.ReevalInterval, func(time.Duration) {
		c.Reevaluate()
		c.mu.Lock()
		stopped := c.stopped
		c.mu.Unlock()
		if !stopped {
			_ = c.scheduleReeval()
		}
	})
	if err != nil {
		if errors.Is(err, simclock.ErrStopped) {
			return nil
		}
		return fmt.Errorf("core: schedule reeval: %w", err)
	}
	c.mu.Lock()
	c.reevalTimer = id
	c.mu.Unlock()
	return nil
}

// Stop cancels periodic re-evaluation. Registered applications keep their
// resources; Stop only quiesces the controller.
func (c *Controller) Stop() {
	c.mu.Lock()
	c.stopped = true
	timer := c.reevalTimer
	c.mu.Unlock()
	if timer != 0 {
		c.cfg.Clock.Cancel(timer)
	}
}

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
func (c *Controller) registerAt(bundle *rsl.BundleSpec, source string, now time.Duration) (int, []Event, error) {
	if bundle == nil || len(bundle.Options) == 0 {
		return 0, nil, errors.New("core: bundle with no options")
	}
	c.mu.Lock()
	c.nextInstance++
	inst := c.nextInstance
	app := &appState{
		instance:     inst,
		bundle:       bundle,
		ownerPath:    namespace.InstancePath(bundle.App, inst),
		source:       source,
		registeredAt: now,
		lastSwitch:   -1,
	}

	var events []Event
	best, err := c.bestChoiceLocked(app, now, true)
	if err == nil {
		ev, aerr := c.adoptLocked(app, best, now, true)
		if aerr != nil {
			c.nextInstance--
			c.mu.Unlock()
			return 0, nil, aerr
		}
		c.apps[inst] = app
		c.order = append(c.order, inst)
		events = append(events, ev)

		// "After defining the initial options for a new application, we
		// re-evaluate the options for existing applications."
		events = append(events, c.reevaluateLocked(now, inst)...)
	} else if errors.Is(err, ErrNoFeasibleOption) && len(c.order) > 0 {
		// Nothing fits while existing applications hold their resources:
		// change existing allocations to accommodate the new application
		// ("applications written to Harmony's interface ... enable changing
		// existing resource allocations in order to accommodate new
		// applications", Section 1). A joint search over all bundles finds
		// the accommodation.
		c.apps[inst] = app
		c.order = append(c.order, inst)
		events = c.reevaluateExhaustiveLocked(now, 0)
		if app.claim == nil {
			// Even the joint search could not place it: roll back.
			delete(c.apps, inst)
			c.order = c.order[:len(c.order)-1]
			c.nextInstance--
			c.mu.Unlock()
			return 0, nil, err
		}
		for i := range events {
			if events[i].Instance == inst {
				events[i].Initial = true
			}
		}
	} else {
		c.nextInstance--
		c.mu.Unlock()
		return 0, nil, err
	}
	listeners := append([]Listener(nil), c.listeners...)
	c.mu.Unlock()

	c.publish(listeners, events)
	return inst, events, nil
}

// Unregister removes an application (harmony_end), releases its resources
// and re-evaluates the remaining applications.
func (c *Controller) Unregister(instance int) ([]Event, error) {
	return c.unregisterAt(instance, c.cfg.Clock.Now())
}

// unregisterAt is Unregister at an explicit decision time (see registerAt).
func (c *Controller) unregisterAt(instance int, now time.Duration) ([]Event, error) {
	c.mu.Lock()
	app, ok := c.apps[instance]
	if !ok {
		c.mu.Unlock()
		return nil, fmt.Errorf("%w: %d", ErrUnknownInstance, instance)
	}
	if app.claim != nil {
		if err := c.ledger.Release(app.claim.ID); err != nil {
			c.mu.Unlock()
			return nil, fmt.Errorf("core: release on unregister: %w", err)
		}
	}
	_ = c.ns.Delete(app.owner())
	delete(c.apps, instance)
	for i, id := range c.order {
		if id == instance {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
	events := c.reevaluateLocked(now, 0)
	listeners := append([]Listener(nil), c.listeners...)
	c.mu.Unlock()

	c.publish(listeners, events)
	return events, nil
}

// Reevaluate runs one pass of the paper's greedy optimization over all
// registered applications (triggered by events or periodically).
func (c *Controller) Reevaluate() []Event {
	return c.reevaluateAt(c.cfg.Clock.Now())
}

// reevaluateAt is Reevaluate at an explicit decision time (see registerAt).
func (c *Controller) reevaluateAt(now time.Duration) []Event {
	c.mu.Lock()
	events := c.reevaluateLocked(now, 0)
	listeners := append([]Listener(nil), c.listeners...)
	c.mu.Unlock()
	c.publish(listeners, events)
	return events
}

func (c *Controller) publish(listeners []Listener, events []Event) {
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

// Objective reports the current objective value over predicted times.
func (c *Controller) Objective() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cfg.Objective(c.jobsLocked())
}

// Status reports the objective and the applications (Objective and Apps) as
// of one state: no decision is applied between the two.
func (c *Controller) Status() (objective float64, apps []Snapshot) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cfg.Objective(c.jobsLocked()), c.appsLocked()
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
func (c *Controller) Apps() []Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.appsLocked()
}

func (c *Controller) appsLocked() []Snapshot {
	out := make([]Snapshot, 0, len(c.order))
	for _, id := range c.order {
		a := c.apps[id]
		var hosts []string
		if a.assignment != nil {
			hosts = a.assignment.Hosts()
		}
		out = append(out, Snapshot{
			Instance:         a.instance,
			App:              a.bundle.App,
			Bundle:           a.bundle.Name,
			Choice:           a.choice,
			Hosts:            hosts,
			PredictedSeconds: a.predicted,
			Switches:         a.switches,
			Degraded:         a.degraded,
		})
	}
	return out
}

// Bundles returns the registered option bundles in registration order, so
// workload-level analyses (package vet) can judge an incoming spec against
// the demand already admitted.
func (c *Controller) Bundles() []*rsl.BundleSpec {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*rsl.BundleSpec, 0, len(c.order))
	for _, id := range c.order {
		out = append(out, c.apps[id].bundle)
	}
	return out
}

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
	c.mu.Lock()
	defer c.mu.Unlock()
	app, ok := c.apps[instance]
	if !ok {
		return Choice{}, fmt.Errorf("%w: %d", ErrUnknownInstance, instance)
	}
	return app.choice, nil
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
	c.mu.Lock()
	app, ok := c.apps[instance]
	if !ok {
		c.mu.Unlock()
		return nil, fmt.Errorf("%w: %d", ErrUnknownInstance, instance)
	}
	if app.choice.Equal(ch) {
		c.mu.Unlock()
		return nil, nil
	}
	if app.bundle.Option(ch.Option) == nil {
		c.mu.Unlock()
		return nil, fmt.Errorf("core: option %q not in bundle %s", ch.Option, app.bundle.Name)
	}
	// Evaluate the forced choice hypothetically: the app's claim stays in
	// place until adoption, which handles release/rollback itself.
	ctx := c.newEvalContextLocked(app)
	cand, err := c.evaluateChoice(ctx, ch, c.choiceStaticLocked(app, ch))
	if err != nil {
		c.mu.Unlock()
		return nil, fmt.Errorf("core: force choice: %w", err)
	}
	if cand.frictionWarn != "" {
		c.warnLocked(cand.frictionWarn)
	}
	ev, err := c.adoptLocked(app, cand, now, false)
	if err != nil {
		c.mu.Unlock()
		return nil, err
	}
	listeners := append([]Listener(nil), c.listeners...)
	c.mu.Unlock()
	c.publish(listeners, []Event{ev})
	return &ev, nil
}

// ActiveInstances reports the registered instance ids of one application
// name (e.g. all DBclient instances), in registration order.
func (c *Controller) ActiveInstances(appName string) []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []int
	for _, id := range c.order {
		if c.apps[id].bundle.App == appName {
			out = append(out, id)
		}
	}
	return out
}

// jobsLocked builds objective inputs from current predictions. Degraded
// apps hold no resources and have no meaningful prediction, so they do not
// contribute to the objective.
func (c *Controller) jobsLocked() []objective.JobPrediction {
	jobs := make([]objective.JobPrediction, 0, len(c.order))
	for _, id := range c.order {
		a := c.apps[id]
		if a.degraded {
			continue
		}
		jobs = append(jobs, objective.JobPrediction{App: a.owner(), Seconds: a.predicted})
	}
	return jobs
}

// predictCommittedLocked predicts an application against the committed
// ledger state (all claims reserved), as captured in view.
func (c *Controller) predictCommittedLocked(view *resource.Snapshot, a *appState) {
	opt := a.bundle.Option(a.choice.Option)
	pred, err := c.predictIndexed(predict.Indexed{View: view}, opt, a.placedFor(view).pl)
	if err == nil {
		a.predicted = pred.Seconds
	}
}

// refreshPredictionsLocked recomputes every application's predicted time
// against current ledger state.
func (c *Controller) refreshPredictionsLocked(view *resource.Snapshot) {
	for _, id := range c.order {
		if a := c.apps[id]; a.assignment != nil {
			c.predictCommittedLocked(view, a)
		}
	}
}

// adoptLocked commits a choice for app: releases the app's previous claim
// (if any), reserves the candidate's resources, updates the namespace and
// returns the event. On reservation failure the previous placement is
// restored, so app.claim never points at a released claim: it either holds
// a live claim or is nil.
func (c *Controller) adoptLocked(app *appState, cand candidate, now time.Duration, initial bool) (Event, error) {
	prevClaim, prevAsg := app.claim, app.assignment
	if prevClaim != nil {
		if err := c.ledger.Release(prevClaim.ID); err != nil {
			// The ledger does not know this claim; nothing is actually held.
			c.warnLocked(fmt.Sprintf("core: %s holds stale claim %d: %v", app.owner(), prevClaim.ID, err))
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
				c.warnLocked(fmt.Sprintf("core: %s: could not restore placement after failed adoption: %v", app.owner(), rerr))
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
	c.refreshPredictionsLocked(committed)
	// A just-registered app is not in c.order yet; predict it directly.
	c.predictCommittedLocked(committed, app)
	c.writeNamespaceLocked(app)
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

// writeNamespaceLocked publishes the app's configuration into the shared
// namespace using the paper's layout:
// application.instance.bundle.option plus per-resource tags.
func (c *Controller) writeNamespaceLocked(app *appState) {
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
