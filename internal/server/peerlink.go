// Peer transport: the sockets of the replica shell (replica.go). One sender
// goroutine per peer performs that peer's exchanges one at a time; inbound
// connections hand consensus traffic to the loop and wait for its answer.
// Neither side touches consensus state.

package server

import (
	"net"
	"time"

	"harmony/internal/consensus"
	"harmony/internal/protocol"
)

// track registers a connection for Close to break; false, and the connection
// closed, when the replica already is.
func (r *Replica) track(nc net.Conn) bool {
	r.connMu.Lock()
	defer r.connMu.Unlock()
	if r.closed {
		_ = nc.Close()
		return false
	}
	r.conns[nc] = struct{}{}
	return true
}

func (r *Replica) drop(nc net.Conn) {
	r.connMu.Lock()
	delete(r.conns, nc)
	r.connMu.Unlock()
	_ = nc.Close()
}

// peerConn is a sender's connection to its peer (none until the first dial).
type peerConn struct {
	net.Conn
	writer *protocol.Writer
	reader *protocol.Reader
	seq    uint64
}

// sender performs the exchanges with one peer, one at a time, and posts each
// result — the reply, or nil when none came — back to the loop.
func (r *Replica) sender(addr string, out <-chan *protocol.Message) {
	defer r.wg.Done()
	var p peerConn
	for {
		select {
		case <-r.stop:
			return
		case msg := <-out:
			reply, err := r.rpc(addr, &p, msg)
			if err != nil || reply.Type == protocol.TypeError {
				reply = nil
			}
			if !r.post(event{in: consensus.Input{Kind: consensus.PeerReply, From: addr, Msg: reply}}) {
				return
			}
		}
	}
}

// ioDeadline bounds one exchange with a peer and one write to a client: half
// an election timeout, and at least 50 ms.
func (r *Replica) ioDeadline() time.Duration {
	return max(r.cfg.ElectionTimeout/2, 50*time.Millisecond)
}

// rpc performs one synchronous request/reply exchange with a peer.
func (r *Replica) rpc(addr string, p *peerConn, msg *protocol.Message) (*protocol.Message, error) {
	deadline := r.ioDeadline()
	if p.Conn == nil {
		conn, err := net.DialTimeout("tcp", addr, deadline)
		if err != nil {
			return nil, err
		}
		if !r.track(conn) {
			return nil, net.ErrClosed
		}
		p.Conn, p.writer, p.reader = conn, protocol.NewWriter(conn), protocol.NewReader(conn)
	}
	p.seq++
	msg.Seq = p.seq
	_ = p.SetDeadline(time.Now().Add(deadline))
	err := p.writer.Write(msg)
	for err == nil {
		var reply *protocol.Message
		if reply, err = p.reader.Read(); err == nil && reply.Seq == msg.Seq {
			return reply, nil
		}
		// Otherwise a stale reply from a timed-out earlier exchange: skip it.
	}
	r.drop(p.Conn)
	p.Conn = nil
	return nil, err
}

// acceptPeers serves inbound replication traffic.
func (r *Replica) acceptPeers() {
	defer r.wg.Done()
	for {
		nc, err := r.listener.Accept()
		if err != nil || !r.track(nc) {
			return
		}
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			defer r.drop(nc)
			reader, writer := protocol.NewReader(nc), protocol.NewWriter(nc)
			for {
				msg, err := reader.Read()
				if err != nil {
					return
				}
				reply := r.handlePeer(msg)
				reply.Seq = msg.Seq
				if err := writer.Write(reply); err != nil {
					return
				}
			}
		}()
	}
}

// handlePeer answers one replication message: consensus traffic goes through
// the loop, a status read does not.
func (r *Replica) handlePeer(msg *protocol.Message) *protocol.Message {
	switch msg.Type {
	case protocol.TypeVoteRequest, protocol.TypeAppendEntries, protocol.TypeInstallSnapshot:
		reply := make(chan *protocol.Message, 1)
		if r.post(event{in: consensus.Input{Kind: consensus.PeerMsg, Msg: msg}, reply: reply}) {
			select {
			case m := <-reply:
				return m
			case <-r.stop:
			}
		}
		return errReply("replica %s is closed", r.cfg.ID)
	case protocol.TypeClusterStatus:
		st := r.Status()
		return &protocol.Message{Type: protocol.TypeClusterStatusReply, Replica: &st}
	default:
		return errReply("unknown replication message type %q", msg.Type)
	}
}
