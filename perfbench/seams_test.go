package main

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"pvmigrate/internal/cluster"
	"pvmigrate/internal/core"
	"pvmigrate/internal/gs"
	"pvmigrate/internal/netsim"
	"pvmigrate/internal/netwire"
	"pvmigrate/internal/serve"
	"pvmigrate/internal/sim"
)

// plainTarget is a gs.Target without a load index.
type plainTarget struct{ calls []string }

func (p *plainTarget) EvacuateHost(host int, _ core.MigrationReason) (int, error) {
	p.calls = append(p.calls, fmt.Sprint("evacuate ", host))
	return 3, nil
}

func (p *plainTarget) MoveOne(from, to int, _ core.MigrationReason) error {
	p.calls = append(p.calls, fmt.Sprint("move ", from, to))
	return nil
}

func (p *plainTarget) HostLoad(host int) int { return host * 10 }

func TestWrapTargetForwardsIndex(t *testing.T) {
	k := sim.NewKernel()
	cl := cluster.New(k, netsim.Params{}, cluster.DefaultHostSpec("a"), cluster.DefaultHostSpec("b"))
	ct := gs.NewCountTarget(cl)
	ct.Seed(0, 2)
	tr := newTracer()
	w := wrapTarget(ct, tr)
	it, ok := w.(gs.IndexedTarget)
	if !ok {
		t.Fatal("wrapping an IndexedTarget lost Index")
	}
	if it.Index() != ct.Index() {
		t.Fatal("Index does not reach the wrapped target's load table")
	}
	if err := w.MoveOne(0, 1, core.ReasonHighLoad); err != nil {
		t.Fatal(err)
	}
	if ct.HostLoad(1) != 1 || w.HostLoad(1) != 1 {
		t.Fatalf("MoveOne not forwarded: loads %d/%d", ct.HostLoad(1), w.HostLoad(1))
	}
	if n := tr.span("gs.actuate.move").n; n != 1 {
		t.Fatalf("MoveOne traced %d times, want 1", n)
	}

	p := &plainTarget{}
	pw := wrapTarget(p, tr)
	if _, ok := pw.(gs.IndexedTarget); ok {
		t.Fatal("wrapping a target without Index added one")
	}
	if n, err := pw.EvacuateHost(4, core.ReasonOwnerReclaim); n != 3 || err != nil {
		t.Fatalf("EvacuateHost = %d, %v", n, err)
	}
	if err := pw.MoveOne(1, 2, core.ReasonHighLoad); err != nil {
		t.Fatal(err)
	}
	if pw.HostLoad(2) != 20 || !reflect.DeepEqual(p.calls, []string{"evacuate 4", "move 1 2"}) {
		t.Fatalf("calls not forwarded: %v", p.calls)
	}
	if n := tr.span("gs.actuate.evacuate").n; n != 1 {
		t.Fatalf("EvacuateHost traced %d times, want 1", n)
	}
}

// syncBuffer is a journal sink that can fsync.
type syncBuffer struct {
	bytes.Buffer
	syncs int
}

func (s *syncBuffer) Sync() error { s.syncs++; return nil }

func TestWrapJournalForwardsSync(t *testing.T) {
	tr := newTracer()
	sink := &syncBuffer{}
	jw, err := serve.NewJournalWriter(wrapJournal(sink, tr), serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := jw.Append(serve.Command{Seq: 1, Kind: serve.CmdAdvance, Advance: 1}); err != nil {
		t.Fatal(err)
	}
	if sink.syncs != 2 {
		t.Fatalf("the journal synced %d times through the wrapper, want 2 (header and command)", sink.syncs)
	}
	if tr.span("journal.sync").n != 2 || tr.span("journal.write").n != 2 {
		t.Fatalf("spans: %d syncs, %d writes", tr.span("journal.sync").n, tr.span("journal.write").n)
	}
	data, err := serve.ReadJournal(bytes.NewReader(sink.Bytes()))
	if err != nil || len(data.Commands) != 1 {
		t.Fatalf("journal through the wrapper does not read back: %v", err)
	}

	var plain bytes.Buffer
	if _, ok := wrapJournal(&plain, tr).(interface{ Sync() error }); ok {
		t.Fatal("wrapping a sink without Sync added one")
	}
}

// fakeWire records the netsim.Wire calls it receives.
type fakeWire struct{ calls []string }

func (f *fakeWire) AttachHost(h netsim.HostID) { f.calls = append(f.calls, fmt.Sprint("attach ", h)) }
func (f *fakeWire) SendDgram(src netsim.HostID, sp int, dst netsim.HostID, dp int, payload any) (uint64, error) {
	f.calls = append(f.calls, fmt.Sprintf("send %d %d %d %d %v", src, sp, dst, dp, payload))
	return 7, nil
}
func (f *fakeWire) RecvDgram(token uint64) (any, error) {
	f.calls = append(f.calls, fmt.Sprint("recv ", token))
	return "payload", nil
}
func (f *fakeWire) Listen(h netsim.HostID, port int) error {
	f.calls = append(f.calls, fmt.Sprint("listen ", h, port))
	return nil
}
func (f *fakeWire) CloseListen(h netsim.HostID, port int) {
	f.calls = append(f.calls, fmt.Sprint("unlisten ", h, port))
}
func (f *fakeWire) Dial(src, dst netsim.HostID, port int) (netsim.WireConn, netsim.WireConn, error) {
	f.calls = append(f.calls, fmt.Sprint("dial ", src, dst, port))
	return &fakeConn{f, "c"}, &fakeConn{f, "s"}, nil
}

type fakeConn struct {
	f    *fakeWire
	side string
}

func (c *fakeConn) Send(seq uint64, payload any) error {
	c.f.calls = append(c.f.calls, fmt.Sprintf("%s send %d %v", c.side, seq, payload))
	return nil
}
func (c *fakeConn) Recv(seq uint64) (any, error) {
	c.f.calls = append(c.f.calls, fmt.Sprint(c.side, " recv ", seq))
	return seq, nil
}
func (c *fakeConn) Close() { c.f.calls = append(c.f.calls, c.side+" close") }

func TestTracedWireForwards(t *testing.T) {
	tr := newTracer()
	f := &fakeWire{}
	var w netsim.Wire = tracedWire{f, tr}
	w.AttachHost(1)
	if tok, err := w.SendDgram(1, 2, 3, 4, "x"); tok != 7 || err != nil {
		t.Fatalf("SendDgram = %d, %v", tok, err)
	}
	if v, err := w.RecvDgram(7); v != "payload" || err != nil {
		t.Fatalf("RecvDgram = %v, %v", v, err)
	}
	if err := w.Listen(3, 9); err != nil {
		t.Fatal(err)
	}
	c, s, err := w.Dial(1, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Send(1, "y"); err != nil {
		t.Fatal(err)
	}
	if v, err := s.Recv(1); v != uint64(1) || err != nil {
		t.Fatalf("Recv = %v, %v", v, err)
	}
	c.Close()
	w.CloseListen(3, 9)
	want := []string{"attach 1", "send 1 2 3 4 x", "recv 7", "listen 3 9", "dial 1 3 9",
		"c send 1 y", "s recv 1", "c close", "unlisten 3 9"}
	if !reflect.DeepEqual(f.calls, want) {
		t.Fatalf("calls %v, want %v", f.calls, want)
	}
	for _, name := range []string{"netwire.send_dgram", "netwire.recv_dgram", "netwire.dial", "netwire.stream_send", "netwire.stream_recv"} {
		if tr.span(name).n != 1 {
			t.Errorf("%s traced %d times, want 1", name, tr.span(name).n)
		}
	}
}

func TestTracedCodecMatchesBinaryCodec(t *testing.T) {
	tr := newTracer()
	c := tracedCodec{netwire.BinaryCodec{}, tr}
	for _, payload := range []any{nil, int64(42), "frame", []byte{1, 2, 3}} {
		want, err := netwire.BinaryCodec{}.AppendEncode(nil, payload)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.AppendEncode(nil, payload)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("encode %v: %x, %v; want %x", payload, got, err, want)
		}
		back, err := c.Decode(got)
		if err != nil || !reflect.DeepEqual(back, payload) {
			t.Fatalf("decode %v: %v, %v", payload, back, err)
		}
	}
	if tr.span("wirefmt.encode").n != 4 || tr.span("wirefmt.decode").n != 4 {
		t.Fatalf("codec spans: %d encodes, %d decodes", tr.span("wirefmt.encode").n, tr.span("wirefmt.decode").n)
	}
}

// TestSpanSelfTime checks that a parent's self time excludes its child.
func TestSpanSelfTime(t *testing.T) {
	tr := newTracer()
	tr.begin("parent")
	tr.begin("child")
	for i := 0; i < 1000; i++ {
		_ = fmt.Sprint(i)
	}
	tr.end()
	tr.end()
	p, c := tr.span("parent"), tr.span("child")
	if p.n != 1 || c.n != 1 {
		t.Fatalf("counts %d/%d", p.n, c.n)
	}
	if p.self != p.total-c.total || c.self != c.total {
		t.Fatalf("parent total %v self %v, child total %v", p.total, p.self, c.total)
	}
	var nilTracer *tracer
	nilTracer.begin("x") // the untraced path records nothing and must not panic
	nilTracer.end()
}
