package main

import (
	"bytes"
	"errors"
	"fmt"
	"strings"

	"harmony"
	"harmony/internal/namespace"
	"harmony/internal/protocol"
)

// Shadow is an in-process controller built through the facade exactly as
// harmonyd builds its own, fed the same operation sequence. It serves two
// purposes: its decisions are the oracle the live run is checked against,
// and, given a recorder, each cycle replays every call the server's
// bundle_setup and end handlers make, in their order, as child spans of
// server.bundle_setup and server.end. Without a recorder it makes only the
// calls that decide (decode, Register, Unregister), which halves the
// oracle's cost on the workloads where vetting is dear.
type Shadow struct {
	ctrl  *harmony.Controller
	clock *harmony.Clock
	rec   *Recorder

	// span context of the operation in progress, read by the listener.
	parent, cycle int
	// admitting is the instance being registered: the server computes its
	// update but has no connection bound to it yet, so sends nothing.
	admitting int

	wire   bytes.Buffer
	writer *protocol.Writer
	reader *protocol.Reader

	// counters over the replay
	wireBytes int64
	events    int
	// lastInstance is the highest instance id assigned so far; lastInitial
	// is that admission's own event (its placement feeds the probes).
	lastInstance int
	lastInitial  harmony.Event
}

// newShadow mirrors harmonyd's construction for the workload's cluster with
// default flags. workers sets Config.EvalWorkers (0: GOMAXPROCS, as the
// daemon runs).
func newShadow(w Workload, workers int, rec *Recorder) (*Shadow, error) {
	var cl *harmony.Cluster
	var err error
	if w.SP2 > 0 {
		cl, err = harmony.NewSP2Cluster(w.SP2)
	} else {
		var decls []*harmony.NodeDecl
		if _, decls, err = harmony.DecodeScript(w.Resources); err == nil {
			cl, err = harmony.NewCluster(harmony.ClusterConfig{}, decls)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("shadow cluster: %w", err)
	}
	obj, err := harmony.ObjectiveByName("mean")
	if err != nil {
		return nil, err
	}
	sh := &Shadow{clock: harmony.NewClock(), rec: rec}
	sh.ctrl, err = harmony.NewController(harmony.ControllerConfig{
		Cluster:     cl,
		Clock:       sh.clock,
		Objective:   obj,
		Bus:         harmony.NewMetricBus(0),
		EvalWorkers: workers,
	})
	if err != nil {
		sh.clock.Stop()
		return nil, err
	}
	sh.writer = protocol.NewWriter(&sh.wire)
	sh.reader = protocol.NewReader(&sh.wire)
	if err := sh.ctrl.Subscribe(sh.onEvent); err != nil {
		sh.Close()
		return nil, err
	}
	return sh, nil
}

func (sh *Shadow) Close() {
	sh.ctrl.Stop()
	sh.clock.Stop()
}

// eventVars derives an event's update set as the server does: the bundle
// variable, the option variables and every namespace leaf of the instance.
func (sh *Shadow) eventVars(ev harmony.Event) map[string]harmony.VarValue {
	sp := sh.rec.begin("namespace.walk", sh.parent, sh.cycle)
	defer sh.rec.end(sp)
	vars := map[string]harmony.VarValue{ev.Bundle: harmony.StrVar(ev.Choice.Option)}
	for k, v := range ev.Choice.Vars {
		vars[k] = harmony.NumVar(v)
	}
	prefix := namespace.InstancePath(ev.App, ev.Instance)
	_ = sh.ctrl.Namespace().Walk(prefix, func(path string, v namespace.Value) {
		rel := strings.TrimPrefix(path, prefix+".")
		if v.IsString {
			vars[rel] = harmony.StrVar(v.Str)
		} else {
			vars[rel] = harmony.NumVar(v.Num)
		}
	})
	return vars
}

// onEvent is the server's listener: build the update, and push it unless the
// instance is the one being admitted.
func (sh *Shadow) onEvent(ev harmony.Event) {
	sh.events++
	if sh.rec == nil {
		return
	}
	vars := sh.eventVars(ev)
	if ev.Instance == sh.admitting {
		return
	}
	sh.encode(&protocol.Message{Type: protocol.TypeUpdate, Instance: ev.Instance, Vars: vars})
	sh.wire.Reset()
}

// write frames one message into the wire buffer and counts its bytes.
func (sh *Shadow) write(m *protocol.Message) {
	before := sh.wire.Len()
	_ = sh.writer.Write(m) // a bytes.Buffer cannot fail
	sh.wireBytes += int64(sh.wire.Len() - before)
}

// encode is write as a protocol.encode span: a message the server sends.
func (sh *Shadow) encode(m *protocol.Message) {
	sp := sh.rec.begin("protocol.encode", sh.parent, sh.cycle)
	sh.write(m)
	sh.rec.end(sp)
}

// decode deframes the message just encoded, as a span.
func (sh *Shadow) decode() (*protocol.Message, error) {
	sp := sh.rec.begin("protocol.decode", sh.parent, sh.cycle)
	defer sh.rec.end(sp)
	return sh.reader.Read()
}

// exchange accounts the wire bytes of one request and its reply without
// spans, for the calls whose server side is trivial.
func (sh *Shadow) exchange(req, reply *protocol.Message) {
	sh.write(req)
	sh.write(reply)
	sh.wire.Reset()
}

// shadowToken stands in for the 32-hex-digit resume token of a startup ack.
const shadowToken = "0123456789abcdef0123456789abcdef"

// admit replays one startup + bundle_setup as the server handles them and
// returns the instance and the variables of the ack.
func (sh *Shadow) admit(app App, cycle int) (int, map[string]harmony.VarValue, error) {
	if sh.rec == nil {
		return sh.register(app.RSL, 0, cycle)
	}
	sh.exchange(&protocol.Message{Type: protocol.TypeStartup, Seq: 1, AppID: app.Name, UseInterrupts: true},
		&protocol.Message{Type: protocol.TypeAck, Seq: 1, AppID: app.Name, ResumeToken: shadowToken})

	root := sh.rec.begin("server.bundle_setup", 0, cycle)
	defer sh.rec.end(root)
	sh.parent, sh.cycle = root, cycle
	defer func() { sh.parent = 0 }()

	sh.write(&protocol.Message{Type: protocol.TypeBundleSetup, Seq: 2, RSL: app.RSL})
	msg, err := sh.decode()
	if err != nil {
		return 0, nil, err
	}
	sh.wire.Reset()

	sp := sh.rec.begin("vet.script", root, cycle)
	nodes := sh.ctrl.ClusterNodes()
	harmony.VetScript(msg.RSL, harmony.VetOptions{ExtraNodes: nodes})
	sh.rec.end(sp)

	sp = sh.rec.begin("vet.workload", root, cycle)
	specs := make([]harmony.VetWorkloadSpec, 0, 2)
	if admitted := sh.ctrl.Bundles(); len(admitted) > 0 {
		specs = append(specs, harmony.VetWorkloadSpec{File: "admitted", Bundles: admitted})
	}
	specs = append(specs, harmony.VetWorkloadSpec{File: "incoming", Src: msg.RSL})
	harmony.VetWorkload(specs, harmony.VetOptions{ExtraNodes: sh.ctrl.ClusterNodes()})
	sh.rec.end(sp)

	inst, vars, err := sh.register(msg.RSL, root, cycle)
	if err != nil {
		return 0, nil, err
	}
	sh.encode(&protocol.Message{Type: protocol.TypeAck, Seq: 2, Instance: inst, Vars: vars})
	sh.wire.Reset()
	return inst, vars, nil
}

// register decodes and registers one bundle and derives its ack variables.
func (sh *Shadow) register(src string, root, cycle int) (int, map[string]harmony.VarValue, error) {
	sp := sh.rec.begin("rsl.decode", root, cycle)
	bundles, _, err := harmony.DecodeScript(src)
	sh.rec.end(sp)
	if err != nil {
		return 0, nil, err
	}
	if len(bundles) != 1 {
		return 0, nil, errors.New("shadow: expected exactly one bundle")
	}
	// The controller assigns instance ids in order, so the id about to be
	// assigned is known to the listener before Register publishes events.
	sh.admitting = sh.lastInstance + 1
	sp = sh.rec.begin("core.register", root, cycle)
	sh.parent = sp
	inst, events, err := sh.ctrl.Register(bundles[0])
	sh.parent = root
	sh.rec.end(sp)
	sh.admitting = 0
	if err != nil {
		return 0, nil, err
	}
	var vars map[string]harmony.VarValue
	for i := range events {
		if events[i].Instance == inst {
			vars = sh.eventVars(events[i])
			sh.lastInstance, sh.lastInitial = inst, events[i]
			break
		}
	}
	return inst, vars, nil
}

// depart replays the cycle's heartbeats + end as the server handles them.
func (sh *Shadow) depart(inst, cycle int) error {
	if sh.rec == nil {
		_, err := sh.ctrl.Unregister(inst)
		return err
	}
	for h := 0; h < heartbeatsPerCycle; h++ {
		sh.exchange(&protocol.Message{Type: protocol.TypeHeartbeat, Seq: 3}, &protocol.Message{Type: protocol.TypeAck, Seq: 3})
	}

	root := sh.rec.begin("server.end", 0, cycle)
	defer sh.rec.end(root)
	sh.parent, sh.cycle = root, cycle
	defer func() { sh.parent = 0 }()

	sh.write(&protocol.Message{Type: protocol.TypeEnd, Seq: 4, Instance: inst})
	msg, err := sh.decode()
	if err != nil {
		return err
	}
	sh.wire.Reset()

	sp := sh.rec.begin("core.unregister", root, cycle)
	sh.parent = sp
	_, err = sh.ctrl.Unregister(msg.Instance)
	sh.parent = root
	sh.rec.end(sp)
	if err != nil {
		return err
	}
	sh.encode(&protocol.Message{Type: protocol.TypeAck, Seq: 4, Instance: inst})
	sh.wire.Reset()
	return nil
}

// status renders the shadow's state as a status reply carries it.
func (sh *Shadow) status() ([]harmony.AppStatus, float64) {
	var apps []harmony.AppStatus
	for _, a := range sh.ctrl.Apps() {
		apps = append(apps, harmony.AppStatus{
			Instance:         a.Instance,
			App:              a.App,
			Bundle:           a.Bundle,
			Option:           a.Choice.Option,
			Hosts:            a.Hosts,
			PredictedSeconds: a.PredictedSeconds,
			Switches:         a.Switches,
		})
	}
	return apps, sh.ctrl.Objective()
}
