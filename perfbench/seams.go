package main

import (
	"io"

	"pvmigrate/internal/core"
	"pvmigrate/internal/gs"
	"pvmigrate/internal/netsim"
	"pvmigrate/internal/netwire"
)

// The traced run reaches each layer through a seam the program already
// has, by wrapping the value handed to it. A wrapper must keep every
// optional interface of the wrapped value, because the program
// type-asserts some of them: the serve journal fsyncs only a sink with
// Sync, and fleet components read a target's load table through
// gs.IndexedTarget. Each wrap function therefore picks the wrapper type
// that has exactly the inner value's optional methods.

// tracedTarget times actuation through a gs.Target.
type tracedTarget struct {
	inner gs.Target
	tr    *tracer
}

func (t *tracedTarget) EvacuateHost(host int, reason core.MigrationReason) (int, error) {
	t.tr.begin("gs.actuate.evacuate")
	defer t.tr.end()
	return t.inner.EvacuateHost(host, reason)
}

func (t *tracedTarget) MoveOne(from, to int, reason core.MigrationReason) error {
	t.tr.begin("gs.actuate.move")
	defer t.tr.end()
	return t.inner.MoveOne(from, to, reason)
}

func (t *tracedTarget) HostLoad(host int) int { return t.inner.HostLoad(host) }

// tracedIndexedTarget is a tracedTarget whose inner target serves a load
// index.
type tracedIndexedTarget struct {
	tracedTarget
	index func() *gs.LoadIndex
}

func (t *tracedIndexedTarget) Index() *gs.LoadIndex { return t.index() }

func wrapTarget(inner gs.Target, tr *tracer) gs.Target {
	base := tracedTarget{inner: inner, tr: tr}
	if it, ok := inner.(gs.IndexedTarget); ok {
		return &tracedIndexedTarget{tracedTarget: base, index: it.Index}
	}
	return &base
}

// tracedJournal times the serve journal's appends.
type tracedJournal struct {
	w  io.Writer
	tr *tracer
}

func (j *tracedJournal) Write(p []byte) (int, error) {
	j.tr.begin("journal.write")
	defer j.tr.end()
	return j.w.Write(p)
}

// tracedSyncJournal is a tracedJournal over a sink that can fsync.
type tracedSyncJournal struct {
	tracedJournal
	sync func() error
}

func (j *tracedSyncJournal) Sync() error {
	j.tr.begin("journal.sync")
	defer j.tr.end()
	return j.sync()
}

func wrapJournal(w io.Writer, tr *tracer) io.Writer {
	base := tracedJournal{w: w, tr: tr}
	if s, ok := w.(interface{ Sync() error }); ok {
		return &tracedSyncJournal{tracedJournal: base, sync: s.Sync}
	}
	return &base
}

// tracedCodec times the wire codec (internal/wirefmt behind
// netwire.BinaryCodec) on both directions.
type tracedCodec struct {
	inner netwire.WireCodec
	tr    *tracer
}

func (c tracedCodec) AppendEncode(dst []byte, payload any) ([]byte, error) {
	c.tr.begin("wirefmt.encode")
	defer c.tr.end()
	return c.inner.AppendEncode(dst, payload)
}

func (c tracedCodec) Decode(data []byte) (any, error) {
	c.tr.begin("wirefmt.decode")
	defer c.tr.end()
	return c.inner.Decode(data)
}

// tracedWire times the real-socket transport behind netsim.Wire.
type tracedWire struct {
	inner netsim.Wire
	tr    *tracer
}

func (w tracedWire) AttachHost(h netsim.HostID) { w.inner.AttachHost(h) }

func (w tracedWire) SendDgram(src netsim.HostID, srcPort int, dst netsim.HostID, dstPort int, payload any) (uint64, error) {
	w.tr.begin("netwire.send_dgram")
	defer w.tr.end()
	return w.inner.SendDgram(src, srcPort, dst, dstPort, payload)
}

func (w tracedWire) RecvDgram(token uint64) (any, error) {
	w.tr.begin("netwire.recv_dgram")
	defer w.tr.end()
	return w.inner.RecvDgram(token)
}

func (w tracedWire) Listen(h netsim.HostID, port int) error { return w.inner.Listen(h, port) }

func (w tracedWire) CloseListen(h netsim.HostID, port int) { w.inner.CloseListen(h, port) }

func (w tracedWire) Dial(src, dst netsim.HostID, port int) (netsim.WireConn, netsim.WireConn, error) {
	w.tr.begin("netwire.dial")
	client, server, err := w.inner.Dial(src, dst, port)
	w.tr.end()
	if err != nil {
		return client, server, err
	}
	return tracedConn{client, w.tr}, tracedConn{server, w.tr}, nil
}

// tracedConn times one endpoint of a real stream.
type tracedConn struct {
	inner netsim.WireConn
	tr    *tracer
}

func (c tracedConn) Send(seq uint64, payload any) error {
	c.tr.begin("netwire.stream_send")
	defer c.tr.end()
	return c.inner.Send(seq, payload)
}

func (c tracedConn) Recv(seq uint64) (any, error) {
	c.tr.begin("netwire.stream_recv")
	defer c.tr.end()
	return c.inner.Recv(seq)
}

func (c tracedConn) Close() { c.inner.Close() }
