package main

import (
	"bytes"

	"harmony/internal/protocol"
)

// probeProtocol times Writer.Write and Reader.Read over the workload's own
// message mix: the arrival's bundle_setup, its ack with variables, a
// resident's update and the status reply of the resident population.
func probeProtocol(p *probeCtx, res *Result) error {
	ackVars := p.sh.eventVars(p.residentEvent)
	apps, objective := p.sh.status()
	mix := []*protocol.Message{
		{Type: protocol.TypeBundleSetup, Seq: 2, RSL: p.arrival.RSL},
		{Type: protocol.TypeAck, Seq: 2, Instance: p.residentEvent.Instance, Vars: ackVars},
		{Type: protocol.TypeUpdate, Instance: p.residentEvent.Instance, Vars: ackVars},
		{Type: protocol.TypeStatusReply, Seq: 9, Apps: apps, Objective: objective},
	}
	var buf bytes.Buffer
	w := protocol.NewWriter(&buf)
	var err error
	encode := func() {
		buf.Reset()
		for _, m := range mix {
			if werr := w.Write(m); werr != nil {
				err = werr
			}
		}
	}
	ns, n := timeOp(probeBudget, 1, encode)
	if err != nil {
		return err
	}
	res.set("protocol.encode_us_per_msg", "us", us(ns)/float64(len(mix)), n)

	encode()
	wire := append([]byte(nil), buf.Bytes()...)
	ns, n = timeOp(probeBudget, 1, func() {
		r := protocol.NewReader(bytes.NewReader(wire))
		for range mix {
			if _, rerr := r.Read(); rerr != nil {
				err = rerr
			}
		}
	})
	if err != nil {
		return err
	}
	res.set("protocol.decode_us_per_msg", "us", us(ns)/float64(len(mix)), n)
	return nil
}
