package main

import (
	"net"
	"sync"

	"harmony"
	"harmony/internal/protocol"
)

// probeHclient times Heartbeat against a listener in this process that
// speaks the protocol and acks at once: the client library's own cost per
// call (framing, reply routing, goroutine hand-offs) plus loopback TCP.
func probeHclient(p *probeCtx, res *Result) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		r, w := protocol.NewReader(nc), protocol.NewWriter(nc)
		for {
			msg, err := r.Read()
			if err != nil {
				return
			}
			if err := w.Write(&protocol.Message{Type: protocol.TypeAck, Seq: msg.Seq}); err != nil {
				return
			}
		}
	}()
	defer wg.Wait()
	defer ln.Close()
	c, err := harmony.DialWith(ln.Addr().String(), dialConfig)
	if err != nil {
		return err
	}
	defer c.Close()
	var herr error
	ns, n := timeOp(probeBudget, 1, func() {
		if err := c.Heartbeat(); err != nil {
			herr = err
		}
	})
	if herr != nil {
		return herr
	}
	res.set("hclient.call_overhead_us", "us", us(ns), n)
	return nil
}
