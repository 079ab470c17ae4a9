package main

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"harmony"
	"harmony/internal/hclient"
)

// opDeadline is the longest a single operation may take before it counts as
// failed.
const opDeadline = 5 * time.Second

// heartbeatsPerCycle is how many Heartbeat round trips a writer cycle makes
// between its admission and its End. One (the issue's figure) gives the two
// heavy workloads 60 samples a window, and the first round trip after a long
// admission finds the connection's goroutines cold: heartbeat_ms_p50 then
// spreads by 13-19 % of its median over ten runs, with three by 7 %.
const heartbeatsPerCycle = 3

// dialConfig is the one client configuration every workload uses, so that a
// difference between workloads is a difference between deployments.
var dialConfig = harmony.DialConfig{Reconnect: true}

// errLostOutcome marks a known race in harmonyd's replicated write path, in
// code the benchmark may not change: when the leader's heartbeat ships and
// applies an entry while Propose is still fsyncing it, Propose finds the
// entry "applied without outcome" and answers the client with an error,
// although the operation took effect. It strikes about one proposal in
// ten thousand. The client cannot tell what state it left, so the
// harness abandons that deployment, sets up again and says so in the
// result's notes; it does not count as a failed operation.
var errLostOutcome = errors.New("harmonyd lost a committed entry's outcome")

func isLostOutcome(err error) bool {
	return err != nil && (errors.Is(err, errLostOutcome) || strings.Contains(err.Error(), "applied without outcome"))
}

// Ack is what the writer observed of one admission: the instance id and the
// values of the arriving application's ack keys (absent keys stay absent).
type Ack struct {
	Instance int
	Vars     map[string]harmony.VarValue
}

// Op is one recorded mutation, in the order the server executed them. The
// oracle replays the list on a shadow controller.
type Op struct {
	// Arrive holds the admitted application; nil for a departure.
	Arrive *App
	// Instance is the departing instance (departures only).
	Instance int
	// Ack is what the client observed (arrivals only).
	Ack Ack
}

// resident is an application admitted during set-up that stays for the whole
// run. Its connection sends nothing in the measured window; a watcher parked
// in WaitForUpdate timestamps every pushed update.
type resident struct {
	client *harmony.Client
	// admitted holds Stats() right after admission: a follower-first dial
	// has by then already reconnected once, to follow the leader redirect.
	admitted harmony.ClientStats
}

// windowStats are the raw observations of one measured window.
type windowStats struct {
	seconds                          float64
	cycles                           int
	connSetup, admit, heartbeat, end Samples
	status, readerLate               Samples
	updateLat, updateSkew            Samples
	cpuSeconds                       float64
	redirects                        uint64
	attempted, failed                int
	failures                         []string
	triggers                         []trigger
}

// trigger is one writer send that may reconfigure residents.
type trigger struct {
	at    time.Time
	cycle int
}

// Session is one populated deployment and the generator state that drives it.
type Session struct {
	in    *Inputs
	dep   *Deployment
	addrs string
	rec   *Recorder

	residents []*resident
	reader    *harmony.Client

	// ops and nextCycle belong to the writer; only one writer runs at a time.
	ops       []Op
	nextCycle int

	watchWG     sync.WaitGroup
	watchCancel context.CancelFunc
	// updates are the instants a resident's generation changed.
	updMu   sync.Mutex
	updates []time.Time
}

// openSession admits the residents one after another, connects the reader
// and starts the update watchers. first is the member clients dial first.
func openSession(ctx context.Context, in *Inputs, dep *Deployment, first int) (*Session, error) {
	s := &Session{in: in, dep: dep, addrs: dep.Addrs(first)}
	for i := range in.Residents {
		app := in.Residents[i]
		c, err := harmony.DialWith(s.addrs, dialConfig)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("resident %d: %w", i, err)
		}
		r := &resident{client: c}
		s.residents = append(s.residents, r)
		if err := c.Startup(app.Name, true); err != nil {
			s.Close()
			return nil, fmt.Errorf("resident %d startup: %w", i, err)
		}
		inst, err := c.BundleSetup(app.RSL)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("resident %d bundle_setup: %w", i, err)
		}
		s.ops = append(s.ops, Op{Arrive: &in.Residents[i], Ack: readAck(c, app, inst)})
		r.admitted = c.Stats()
	}
	reader, err := harmony.DialWith(s.addrs, dialConfig)
	if err != nil {
		s.Close()
		return nil, fmt.Errorf("reader: %w", err)
	}
	s.reader = reader
	// Startup makes the reader a session, which is what lets the client
	// library reconnect it after its server dies.
	if err := reader.Startup("reader", false); err != nil {
		s.Close()
		return nil, fmt.Errorf("reader startup: %w", err)
	}
	wctx, cancel := context.WithCancel(ctx)
	s.watchCancel = cancel
	for _, r := range s.residents {
		s.watchWG.Add(1)
		go s.watch(wctx, r.client)
	}
	return s, nil
}

// watch parks in WaitForUpdate and timestamps each generation change.
func (s *Session) watch(ctx context.Context, c *harmony.Client) {
	defer s.watchWG.Done()
	for {
		if err := c.WaitForUpdate(ctx); err != nil {
			return // cancelled or closed
		}
		now := time.Now()
		s.updMu.Lock()
		s.updates = append(s.updates, now)
		s.updMu.Unlock()
	}
}

// Close ends the watchers and closes every client connection.
func (s *Session) Close() {
	if s.watchCancel != nil {
		s.watchCancel()
	}
	s.watchWG.Wait()
	for _, r := range s.residents {
		_ = r.client.Close()
	}
	if s.reader != nil {
		_ = s.reader.Close()
	}
}

func readAck(c *harmony.Client, app App, inst int) Ack {
	ack := Ack{Instance: inst, Vars: make(map[string]harmony.VarValue)}
	for _, k := range app.AckKeys {
		if v, ok := c.Value(k); ok {
			ack.Vars[k] = v
		}
	}
	return ack
}

// cycle runs one arrival→departure cycle on a new connection and records
// its timings into st (warm-up cycles pass one they throw away).
func (s *Session) cycle(st *windowStats) error {
	idx := s.nextCycle
	s.nextCycle++
	app := s.in.Arrival(idx)
	root := s.rec.begin("cycle", 0, idx)
	defer s.rec.end(root)

	fail := func(op string, err error) error {
		if isLostOutcome(err) {
			return fmt.Errorf("cycle %d %s: %w (%v)", idx, op, errLostOutcome, err)
		}
		st.failed++
		st.failures = append(st.failures, fmt.Sprintf("cycle %d %s: %v", idx, op, err))
		return fmt.Errorf("cycle %d %s: %w", idx, op, err)
	}
	timed := func(name string, into *Samples, f func(span int) error) error {
		st.attempted++
		sp := s.rec.begin(name, root, idx)
		t0 := time.Now()
		err := f(sp)
		d := time.Since(t0)
		s.rec.end(sp)
		if err == nil && d > opDeadline {
			err = fmt.Errorf("took %v, over the %v deadline", d, opDeadline)
		}
		if err != nil {
			return fail(name, err)
		}
		into.add(d)
		return nil
	}

	var c *harmony.Client
	if err := timed("hclient.conn_setup", &st.connSetup, func(span int) (err error) {
		sp := s.rec.begin("hclient.dial", span, idx)
		c, err = harmony.DialWith(s.addrs, dialConfig)
		s.rec.end(sp)
		if err != nil {
			return err
		}
		sp = s.rec.begin("hclient.startup", span, idx)
		err = c.Startup(app.Name, true)
		s.rec.end(sp)
		return err
	}); err != nil {
		if c != nil {
			_ = c.Close()
		}
		return err
	}
	defer c.Close()
	// A reconnect this early can only be a follower's leader redirect.
	st.redirects += c.Stats().Reconnects
	st.triggers = append(st.triggers, trigger{at: time.Now(), cycle: idx})
	var inst int
	if err := timed("hclient.bundle_setup", &st.admit, func(int) (err error) {
		inst, err = c.BundleSetup(app.RSL)
		return err
	}); err != nil {
		return err
	}
	arrival := app
	s.ops = append(s.ops, Op{Arrive: &arrival, Ack: readAck(c, app, inst)})
	for h := 0; h < heartbeatsPerCycle; h++ {
		if err := timed("hclient.heartbeat", &st.heartbeat, func(int) error { return c.Heartbeat() }); err != nil {
			return err
		}
	}
	st.triggers = append(st.triggers, trigger{at: time.Now(), cycle: idx})
	if err := timed("hclient.end", &st.end, func(int) error { return c.End() }); err != nil {
		return err
	}
	s.ops = append(s.ops, Op{Instance: inst})
	sp := s.rec.begin("hclient.close", root, idx)
	err := c.Close()
	s.rec.end(sp)
	if err != nil {
		return fail("hclient.close", err)
	}
	return nil
}

// warmup runs n unmeasured cycles.
func (s *Session) warmup(ctx context.Context, n int) error {
	var discard windowStats
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := s.cycle(&discard); err != nil {
			return err
		}
	}
	return nil
}

// window measures for d: the writer cycles in a closed loop while the reader
// sends one Status per period in an open loop. Two goroutines and two
// request-carrying connections are active, never more.
func (s *Session) window(ctx context.Context, d time.Duration) (*windowStats, error) {
	st := &windowStats{}
	s.updMu.Lock()
	s.updates = s.updates[:0]
	s.updMu.Unlock()
	cpu0, err := s.dep.CPUSeconds()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	until := start.Add(d)

	var rd readerStats
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rd = s.read(ctx, start, until)
	}()
	var werr error
	for time.Now().Before(until) && ctx.Err() == nil {
		if werr = s.cycle(st); werr != nil {
			break
		}
		st.cycles++
	}
	// The writer stops after the first cycle to finish past the deadline, so
	// the rate is cycles over the time they took, never over less.
	st.seconds = time.Since(start).Seconds()
	wg.Wait()
	if isLostOutcome(werr) {
		return nil, werr
	}
	cpu1, err := s.dep.CPUSeconds()
	if err != nil {
		return nil, err
	}
	st.cpuSeconds = cpu1 - cpu0
	st.status, st.readerLate = rd.latency, rd.late
	st.attempted += rd.attempted
	st.failed += rd.failed
	st.failures = append(st.failures, rd.failures...)
	s.attributeUpdates(st)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return st, nil
}

// readerStats are the open-loop reader's observations.
type readerStats struct {
	latency, late                Samples
	attempted, failed, transient int
	failures                     []string
}

// read is the open-loop reader: one Status per period on its own
// connection, each recorded as a span when the run is traced.
func (s *Session) read(ctx context.Context, start, until time.Time) readerStats {
	return openLoop(ctx, start.Add(s.in.ReaderPhase), until, s.in.Workload.ReaderPeriod, func() error {
		sent := time.Now()
		_, _, err := s.reader.Status()
		s.rec.add("hclient.status", 0, -1, sent, time.Now())
		return err
	})
}

// openLoop calls call once per period from first until the deadline. Each
// call is timed from the instant it was due, not from when it was sent, so a
// stall charges every request it delayed; late records how far behind its
// schedule the generator sent. A call that overruns its period is followed
// at once by the next one, whose due time has already passed.
func openLoop(ctx context.Context, first, until time.Time, period time.Duration, call func() error) readerStats {
	var rs readerStats
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	for k := 0; ; k++ {
		due := first.Add(time.Duration(k) * period)
		if !due.Before(until) {
			return rs
		}
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				return rs
			}
		}
		sent := time.Now()
		rs.attempted++
		err := call()
		done := time.Now()
		switch {
		case errors.Is(err, hclient.ErrReconnecting):
			rs.transient++ // the connection died mid-call; the library is redialing
		case err != nil:
			rs.failed++
			rs.failures = append(rs.failures, fmt.Sprintf("status %d: %v", k, err))
		case done.Sub(due) > opDeadline:
			rs.failed++
			rs.failures = append(rs.failures, fmt.Sprintf("status %d: took %v from its due time", k, done.Sub(due)))
		default:
			rs.latency.add(done.Sub(due))
			rs.late.add(sent.Sub(due))
		}
	}
}

// attributeUpdates charges each observed resident update to the latest
// writer trigger sent before it: the latency is the time from that send to
// the generation change, the skew the distance between the first and the
// last resident update of one trigger.
func (s *Session) attributeUpdates(st *windowStats) {
	s.updMu.Lock()
	ups := append([]time.Time(nil), s.updates...)
	s.updMu.Unlock()
	if len(st.triggers) == 0 {
		return
	}
	first := make(map[int]time.Time)
	last := make(map[int]time.Time)
	for _, u := range ups {
		// Updates and triggers are both few thousand at most and ordered in
		// time per source; a binary search keeps this linearithmic.
		lo, hi := 0, len(st.triggers)
		for lo < hi {
			mid := (lo + hi) / 2
			if st.triggers[mid].at.After(u) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		if lo == 0 {
			continue // caused before the window opened
		}
		t := lo - 1
		st.updateLat.add(u.Sub(st.triggers[t].at))
		s.rec.add("hclient.update_wait", 0, st.triggers[t].cycle, st.triggers[t].at, u)
		if f, ok := first[t]; !ok || u.Before(f) {
			first[t] = u
		}
		if l, ok := last[t]; !ok || u.After(l) {
			last[t] = u
		}
	}
	for t, f := range first {
		if l := last[t]; l.After(f) {
			st.updateSkew.add(l.Sub(f))
		}
	}
}

// residentFailures counts residents that came back from an outage by
// replaying their handshake instead of resuming their session.
func (s *Session) residentFailures() (attempted, failed int, notes []string) {
	for i, r := range s.residents {
		attempted++
		if now := r.client.Stats().Replays; now > r.admitted.Replays {
			failed++
			notes = append(notes, fmt.Sprintf("resident %d replayed its handshake %d time(s)", i, now-r.admitted.Replays))
		}
	}
	return
}

// clientStats sums the resilience counters of the long-lived connections.
func (s *Session) clientStats() (st harmony.ClientStats) {
	add := func(c *harmony.Client) {
		cs := c.Stats()
		st.Reconnects += cs.Reconnects
		st.Resumes += cs.Resumes
		st.Replays += cs.Replays
	}
	for _, r := range s.residents {
		add(r.client)
	}
	add(s.reader)
	return st
}
