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
		// A session is log state only while it holds an instance: the token
		// minted here enters the log with the session's first registration,
		// which carries it, so startup itself proposes nothing. A follower
		// still redirects, so the client settles on the leader before it
		// registers.
		if !r.IsLeader() {
			return proposeFailed("startup", &ErrNotLeader{LeaderClient: r.LeaderClient()})
		}
		token := newResumeToken()
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
			_ = c.srv.cfg.Bus.ReportValue(msg.Name, msg.Value.Num, c.srv.cfg.Controller.Clock().Now())
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
		delete(c.srv.dirty, msg.Instance)
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
		reply := &protocol.Message{Type: protocol.TypeStatusReply, Objective: obj, Apps: make([]protocol.AppStatus, 0, len(apps))}
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
// the RSL text so every replica re-derives the same choice, and, on this
// member's copy of the entry alone, the analysis its door made of the bundle,
// which this member's apply takes in place of decoding the RSL. An admitted
// bundle is acked by ackBundleSetup itself, and the reply is nil.
func (c *conn) handleBundleSetup(r *Replica, msg *protocol.Message) *protocol.Message {
	an, reply := c.admit(msg.RSL)
	if reply != nil {
		return reply
	}
	c.mu.Lock()
	token := c.resumeToken
	c.mu.Unlock()
	res, _, err := r.Propose(&replog.Entry{Op: replog.OpRegister, RSL: msg.RSL, Token: token, Decoded: an})
	if err != nil {
		if errors.As(err, new(undecided)) {
			// The registration may still commit and bind an instance
			// to the session that this connection never hears of.
			c.mu.Lock()
			c.undecided = true
			c.mu.Unlock()
		}
		return proposeFailed("bundle_setup", err)
	}
	if err := c.ackBundleSetup(res.Instance, msg.Seq); err != nil {
		// As serve does when a reply cannot be written: the connection is
		// dead, and closing it ends serve's read.
		_ = c.netConn.Close()
	}
	return nil
}

// admit decodes a bundle_setup script and, unless vetting is off, vets it:
// on its own, then jointly with everything already admitted, since even an
// individually-fine bundle is rejected when the combined best-case demand
// provably exceeds the cluster. The script is parsed once, by the vetting;
// the decode's error, when there is one, is rsl.DecodeScript's. A bundle
// over rsl.MaxChoices is refused in every vet mode, before anything is
// enumerated or proposed: every member would refuse it on apply. It returns
// the bundle's analysis, the one the vetting made when vetting is on, or the
// rejection.
func (c *conn) admit(src string) (*vet.Bundle, *protocol.Message) {
	adm := c.srv.admission
	if adm == nil {
		bundles, _, err := rsl.DecodeScript(src)
		if reply := oneBundle(bundles, err); reply != nil {
			return nil, reply
		}
		return vet.NewBundle(bundles[0]), nil
	}
	rep, ar := adm.Script(src)
	if reply := c.vetReport(rep); reply != nil {
		return nil, reply
	}
	bundles, err := ar.Decode()
	if reply := oneBundle(bundles, err); reply != nil {
		return nil, reply
	}
	if reply := c.vetReport(adm.Workload(ar)); reply != nil {
		return nil, reply
	}
	return ar.Analyses()[0], nil
}

// oneBundle rejects a script that did not decode to exactly one bundle, and
// a bundle over rsl.MaxChoices.
func oneBundle(bundles []*rsl.BundleSpec, err error) *protocol.Message {
	if err != nil {
		return errReply("bundle_setup: %v", err)
	}
	if len(bundles) != 1 {
		return errReply("bundle_setup: expected exactly one harmonyBundle, got %d", len(bundles))
	}
	if err := bundles[0].CheckChoices(); err != nil {
		return errReply("bundle_setup: %v", err)
	}
	return nil
}

// vetReport logs a vet report's findings and, in reject mode, returns the
// rejection reply for its first error; nil admits the bundle.
func (c *conn) vetReport(rep *vet.Report) *protocol.Message {
	for _, d := range rep.Diags {
		c.srv.cfg.Logf("harmony: vet: %s", d)
	}
	if c.srv.cfg.Vet == VetReject {
		if d, bad := rep.FirstError(); bad {
			return errReply("bundle_setup: vet: %s", d)
		}
	}
	return nil
}

// ackBundleSetup binds a fresh instance to this connection and writes the
// registration ack, the reply to request seq, with the instance's
// configuration folded in so the application can start without waiting for a
// separate update. The instance is dirty from its registration's event, so
// the ack carries the configuration current when it is written — the initial
// choice, or any reconfiguration applied since. The ack goes out under the
// connection's write lock, taken before the binding is published: an update
// flushed once the binding is visible waits for it, and so reaches the
// client after the ack, and only if the instance changed after the ack took
// its configuration.
func (c *conn) ackBundleSetup(inst int, seq uint64) error {
	c.mu.Lock()
	c.instances[inst] = true
	c.mu.Unlock()
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	c.srv.mu.Lock()
	c.srv.byInst[inst] = c
	c.srv.mu.Unlock()
	return c.write(&protocol.Message{Type: protocol.TypeAck, Seq: seq, Instance: inst, Vars: c.srv.takeVars(c, inst)})
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
