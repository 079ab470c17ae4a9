// Request handling: the conn-side bridge between the client protocol and the
// replicated log. Every ledger- or session-mutating request becomes a
// proposed replog.Entry; the reply is built from the committed apply result,
// so a client ack means the operation survives leader failure. Followers
// answer mutations with a not_leader redirect carrying the leader's client
// address. Reads, variable declarations (which change no state) and
// connection-local bookkeeping are answered in place.

package server

import (
	"errors"
	"fmt"

	"harmony/internal/core"
	"harmony/internal/protocol"
	"harmony/internal/replog"
	"harmony/internal/resource"
	"harmony/internal/rsl"
	"harmony/internal/vet"
)

func errReply(format string, args ...any) *protocol.Message {
	return &protocol.Message{Type: protocol.TypeError, Error: fmt.Sprintf(format, args...)}
}

// proposeFailed converts a Propose error into the client-visible reply. A
// not_leader error goes out bare — clients classify it by its prefix — with
// the leader's address for the redirect; anything else names the request.
func proposeFailed(request string, err error) *protocol.Message {
	var nl *ErrNotLeader
	if errors.As(err, &nl) {
		m := errReply("%v", err)
		m.Leader = nl.LeaderClient
		return m
	}
	return errReply("%s: %v", request, err)
}

func (c *conn) handle(msg *protocol.Message) *protocol.Message {
	r := c.srv.rep
	switch msg.Type {
	case protocol.TypeStartup:
		if msg.AppID == "" {
			return errReply("startup requires appId")
		}
		// The token is minted here — at propose time, on the leader — so the
		// log entry (and thus every replica's session table) carries it
		// without any randomness on the apply path.
		token := newResumeToken()
		if _, _, err := r.Propose(&replog.Entry{Op: replog.OpSessionStart, Token: token}); err != nil {
			return proposeFailed("startup", err)
		}
		c.mu.Lock()
		c.resumeToken = token
		c.mu.Unlock()
		return &protocol.Message{Type: protocol.TypeAck, AppID: msg.AppID, ResumeToken: token}

	case protocol.TypeHeartbeat:
		// The read itself renewed the lease; the ack lets clients measure
		// liveness round-trips.
		return &protocol.Message{Type: protocol.TypeAck}

	case protocol.TypeResume:
		return c.handleResume(r, msg)

	case protocol.TypeBundleSetup:
		return c.handleBundleSetup(r, msg)

	case protocol.TypeAddVariable:
		// The declaration changes no state: updates come from the
		// controller's namespace, and the client keeps its own defaults.
		if msg.Name == "" {
			return errReply("add_variable requires a name")
		}
		return &protocol.Message{Type: protocol.TypeAck, Name: msg.Name}

	case protocol.TypeReport:
		if msg.Name == "" {
			return errReply("report requires a name")
		}
		if c.srv.cfg.Bus != nil {
			_ = c.srv.cfg.Bus.ReportValue(msg.Name, msg.Value.Num, 0)
		}
		return &protocol.Message{Type: protocol.TypeAck, Name: msg.Name}

	case protocol.TypeEnd:
		c.mu.Lock()
		known := c.instances[msg.Instance]
		c.mu.Unlock()
		if !known {
			return errReply("end: instance %d not owned by this connection", msg.Instance)
		}
		if _, _, err := r.Propose(&replog.Entry{Op: replog.OpUnregister, Instance: msg.Instance}); err != nil {
			return proposeFailed("end", err)
		}
		c.mu.Lock()
		delete(c.instances, msg.Instance)
		c.mu.Unlock()
		c.srv.mu.Lock()
		delete(c.srv.byInst, msg.Instance)
		delete(c.srv.pending, msg.Instance)
		c.srv.mu.Unlock()
		return &protocol.Message{Type: protocol.TypeAck, Instance: msg.Instance}

	case protocol.TypeNodeState:
		if msg.Hostname == "" {
			return errReply("node_state requires a hostname")
		}
		h, err := resource.ParseNodeHealth(msg.State)
		if err != nil {
			return errReply("node_state: %v", err)
		}
		if _, _, err := r.Propose(&replog.Entry{Op: replog.OpNodeState, Hostname: msg.Hostname, State: h.String()}); err != nil {
			return proposeFailed("node_state", err)
		}
		c.srv.cfg.Logf("harmony: node %s marked %s by %s", msg.Hostname, h, c.netConn.RemoteAddr())
		return &protocol.Message{Type: protocol.TypeAck, Hostname: msg.Hostname, State: h.String()}

	case protocol.TypeStatus:
		obj, apps := c.srv.cfg.Controller.Status()
		reply := &protocol.Message{Type: protocol.TypeStatusReply, Objective: obj}
		for _, a := range apps {
			reply.Apps = append(reply.Apps, protocol.AppStatus{
				Instance:         a.Instance,
				App:              a.App,
				Bundle:           a.Bundle,
				Option:           a.Choice.Option,
				Hosts:            a.Hosts,
				PredictedSeconds: a.PredictedSeconds,
				Switches:         a.Switches,
			})
		}
		return reply

	case protocol.TypeReevaluate:
		if _, _, err := r.Propose(&replog.Entry{Op: replog.OpReevaluate}); err != nil {
			return proposeFailed("reevaluate", err)
		}
		return &protocol.Message{Type: protocol.TypeAck}

	case protocol.TypeClusterStatus:
		// Answered by any role: operators ask followers directly.
		st := r.Status()
		return &protocol.Message{Type: protocol.TypeClusterStatusReply, Replica: &st}

	default:
		// Server-originated types (ack, error, status_reply, update) are not
		// valid requests; answering them (and anything unregistered) with a
		// wire error keeps the dispatch exhaustive as the protocol grows.
		return errReply("unknown message type %q", msg.Type)
	}
}

// handleBundleSetup admits a bundle through the log. Vetting and parsing run
// locally first (rejections need no quorum); the registration itself carries
// the RSL text so every replica re-derives the same choice.
func (c *conn) handleBundleSetup(r *Replica, msg *protocol.Message) *protocol.Message {
	if reply := c.vetBundle(msg.RSL); reply != nil {
		return reply
	}
	bundles, _, err := rsl.DecodeScript(msg.RSL)
	if err != nil {
		return errReply("bundle_setup: %v", err)
	}
	if len(bundles) != 1 {
		return errReply("bundle_setup: expected exactly one harmonyBundle, got %d", len(bundles))
	}
	c.mu.Lock()
	token := c.resumeToken
	c.mu.Unlock()
	res, _, err := r.Propose(&replog.Entry{Op: replog.OpRegister, RSL: msg.RSL, Token: token})
	if err != nil {
		return proposeFailed("bundle_setup", err)
	}
	return c.ackBundleSetup(res.Instance, res.Events)
}

// vetBundle statically analyzes an incoming spec per the configured vet
// mode, returning a non-nil rejection reply when the bundle must not be
// admitted.
func (c *conn) vetBundle(src string) *protocol.Message {
	if c.srv.cfg.Vet != VetOff {
		nodes := c.srv.cfg.Controller.ClusterNodes()
		rep := vet.Script(src, vet.Options{ExtraNodes: nodes})
		for _, d := range rep.Diags {
			c.srv.cfg.Logf("harmony: vet: %s", d)
		}
		if c.srv.cfg.Vet == VetReject {
			if d, bad := rep.FirstError(); bad {
				return errReply("bundle_setup: vet: %s", d)
			}
		}
		// Judge the incoming spec jointly with everything already admitted:
		// even an individually-fine bundle is rejected when the combined
		// best-case demand provably exceeds the cluster.
		specs := make([]vet.WorkloadSpec, 0, 2)
		if admitted := c.srv.cfg.Controller.Bundles(); len(admitted) > 0 {
			specs = append(specs, vet.WorkloadSpec{File: "admitted", Bundles: admitted})
		}
		specs = append(specs, vet.WorkloadSpec{File: "incoming", Src: src})
		wrep := vet.Workload(specs, vet.Options{ExtraNodes: nodes})
		for _, d := range wrep.Diags {
			c.srv.cfg.Logf("harmony: vet: %s", d)
		}
		if c.srv.cfg.Vet == VetReject {
			if d, bad := wrep.FirstError(); bad {
				return errReply("bundle_setup: vet: %s", d)
			}
		}
	}
	return nil
}

// ackBundleSetup binds a fresh instance to this connection and builds the
// registration ack, folding the initial configuration into it so the
// application can start without waiting for a separate update.
func (c *conn) ackBundleSetup(inst int, events []core.Event) *protocol.Message {
	c.mu.Lock()
	c.instances[inst] = true
	c.mu.Unlock()
	c.srv.mu.Lock()
	c.srv.byInst[inst] = c
	c.srv.mu.Unlock()

	var initialVars map[string]protocol.VarValue
	for _, ev := range events {
		if ev.Instance == inst {
			initialVars = c.srv.eventVars(ev)
			// Consume the buffered copy created by onEvent.
			c.srv.mu.Lock()
			delete(c.srv.pending, inst)
			c.srv.mu.Unlock()
			break
		}
	}
	return &protocol.Message{
		Type:     protocol.TypeAck,
		Instance: inst,
		Vars:     initialVars,
	}
}

// handleResume re-binds a session to this connection: the client presents
// the resume token from its startup ack and gets its instance ids back
// without re-registering. The resume is itself a log entry, so a new
// leader's session table — rebuilt from the log or a snapshot — answers with
// the same instances the old leader held.
func (c *conn) handleResume(r *Replica, msg *protocol.Message) *protocol.Message {
	token := msg.ResumeToken
	if token == "" {
		return errReply("resume requires a resumeToken")
	}
	_, rec, err := r.Propose(&replog.Entry{Op: replog.OpSessionResume, Token: token})
	if err != nil {
		return proposeFailed("resume", err)
	}
	r.cancelGraceTimer(token)
	s := c.srv
	// The old connection may not have died server-side yet (its lease has
	// not lapsed, or it predates a failover): strip it so its eventual
	// cleanup finds nothing to park or end.
	s.mu.Lock()
	for oc := range s.conns {
		if oc == c {
			continue
		}
		oc.mu.Lock()
		if oc.resumeToken == token {
			oc.instances = make(map[int]bool)
			oc.resumeToken = ""
		}
		oc.mu.Unlock()
	}
	s.mu.Unlock()
	c.mu.Lock()
	c.resumeToken = token
	for _, id := range rec.Instances {
		c.instances[id] = true
	}
	c.mu.Unlock()
	s.mu.Lock()
	for _, id := range rec.Instances {
		s.byInst[id] = c
	}
	s.mu.Unlock()
	s.cfg.Logf("harmony: %s: resumed session %.8s (%d instance(s))", c.netConn.RemoteAddr(), token, len(rec.Instances))
	// Reconfigurations that landed while the client was away are flushed
	// now; clients must tolerate updates arriving before the resume ack.
	for _, id := range rec.Instances {
		s.FlushPendingVars(id)
	}
	return &protocol.Message{Type: protocol.TypeAck, ResumeToken: token, Instances: rec.Instances}
}
