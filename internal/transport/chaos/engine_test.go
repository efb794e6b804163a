package chaos

import (
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/vtime"
)

// fakeEP is a minimal transport.Endpoint recording what actually reaches
// the wire, so engine verdicts can be asserted precisely.
type fakeEP struct {
	id    transport.ProcID
	sent  []sentMsg
	queue []*transport.Message
	done  chan struct{}
	clock vtime.Clock
	ctl   transport.CtlHandler
	// inRecv, if set, runs inside Recv — where a real endpoint runs the
	// control handler.
	inRecv func()
}

type sentMsg struct {
	dst transport.ProcID
	tag int
}

func newFakeEP(id transport.ProcID) *fakeEP {
	return &fakeEP{id: id, done: make(chan struct{})}
}

func (f *fakeEP) ID() transport.ProcID { return f.id }
func (f *fakeEP) Send(dst transport.ProcID, tag int, data any, bytes int64) error {
	f.sent = append(f.sent, sentMsg{dst: dst, tag: tag})
	return nil
}
func (f *fakeEP) Recv(src transport.ProcID, tag int) (*transport.Message, error) {
	if f.inRecv != nil {
		f.inRecv()
	}
	if len(f.queue) == 0 {
		return nil, errors.New("fake: empty")
	}
	m := f.queue[0]
	f.queue = f.queue[1:]
	return m, nil
}
func (f *fakeEP) TryRecv(src transport.ProcID, tag int) (*transport.Message, error) {
	return nil, nil
}
func (f *fakeEP) PollCtl() error                       { return nil }
func (f *fakeEP) SetCtlHandler(h transport.CtlHandler) { f.ctl = h }
func (f *fakeEP) CtlHandler() transport.CtlHandler     { return f.ctl }
func (f *fakeEP) Done() <-chan struct{}                { return f.done }
func (f *fakeEP) Closed() bool                         { return false }
func (f *fakeEP) VClock() *vtime.Clock                 { return &f.clock }
func (f *fakeEP) Compute(d float64)                    {}

var _ transport.Endpoint = (*fakeEP)(nil)

// journal compresses an event list to a comparable signature.
func journal(evs []Event) []string {
	out := make([]string, len(evs))
	for i, ev := range evs {
		out[i] = ev.String()
	}
	return out
}

// TestEngineDeterministicSchedule drives two engines built from the same
// seeded scenario through the same per-process send sequence and requires
// bit-identical fault journals — the property every failing conformance
// run's reproduction recipe rests on. A different seed must (for this
// probabilistic rule) produce a different schedule.
func TestEngineDeterministicSchedule(t *testing.T) {
	run := func(seed int64) []string {
		r := DataRule("p", OpDrop)
		r.Prob = 0.3
		eng := New(Scenario{Name: "det", Seed: seed, Rules: []Rule{r}})
		for proc := transport.ProcID(0); proc < 3; proc++ {
			ep := eng.Wrap(newFakeEP(proc))
			for i := 0; i < 50; i++ {
				ep.Send(transport.ProcID((int(proc)+1)%3), 100+i, nil, 8)
			}
		}
		return journal(eng.Events())
	}
	a, b := run(42), run(42)
	if len(a) == 0 {
		t.Fatalf("no faults fired at Prob=0.3 over 150 sends")
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, different journals: %d vs %d events", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, journals diverge at %d: %q vs %q", i, a[i], b[i])
		}
	}
	c := run(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Errorf("seeds 42 and 43 produced identical %d-event journals", len(a))
	}
}

// TestEngineNthTimesWindow checks the Nth/Times gate: Nth=3, Times=2 fires
// on exactly the 3rd, 4th, and 5th matches.
func TestEngineNthTimesWindow(t *testing.T) {
	r := DataRule("w", OpDrop)
	r.Nth, r.Times = 3, 2
	eng := New(Scenario{Name: "window", Seed: 1, Rules: []Rule{r}})
	ep := eng.Wrap(newFakeEP(0))
	for i := 0; i < 8; i++ {
		ep.Send(1, 100, nil, 8)
	}
	evs := eng.Events()
	if len(evs) != 3 {
		t.Fatalf("fired %d times, want 3:\n%s", len(evs), eng)
	}
	for i, want := range []int{3, 4, 5} {
		if evs[i].Seq != want {
			t.Errorf("firing %d at match %d, want %d", i, evs[i].Seq, want)
		}
	}
	inner := ep.Inner().(*fakeEP)
	if len(inner.sent) != 5 {
		t.Errorf("%d sends reached the wire, want 5 (8 minus 3 drops)", len(inner.sent))
	}
}

// TestEngineControlPlaneImmunity: AnyTag rules must never touch control
// traffic — the failure detector stays truthful while data misbehaves.
// Agreement messages are the exception: they ride a control tag for its
// delivery semantics, and fault like the data they are.
func TestEngineControlPlaneImmunity(t *testing.T) {
	r := DataRule("all", OpDrop)
	eng := New(Scenario{Name: "ctl", Seed: 1, Rules: []Rule{r}})
	ep := eng.Wrap(newFakeEP(0))
	ep.Send(1, transport.CtlPeerDown, nil, 0)
	ep.Send(1, transport.CtlTagBase, nil, 0)
	ep.Send(1, 7, nil, 8)                  // data: dropped
	ep.Send(1, transport.CtlAgree, nil, 8) // agreement: dropped
	inner := ep.Inner().(*fakeEP)
	if len(inner.sent) != 2 {
		t.Fatalf("%d sends reached the wire, want the 2 control sends", len(inner.sent))
	}
	for _, s := range inner.sent {
		if s.tag > transport.CtlTagBase {
			t.Errorf("data tag %d leaked through an AnyTag drop", s.tag)
		}
	}
}

// TestEnginePartition: cross-group data sends fail with PeerFailedError,
// same-group and control sends pass, and Disable heals the partition.
func TestEnginePartition(t *testing.T) {
	eng := New(Scenario{Name: "part", Seed: 1, Rules: []Rule{{
		Name: "split", Op: OpPartition,
		Groups: [][]transport.ProcID{{0, 1}, {2}},
	}}})
	ep := eng.Wrap(newFakeEP(0))

	if err := ep.Send(1, 7, nil, 8); err != nil {
		t.Fatalf("same-group send failed: %v", err)
	}
	err := ep.Send(2, 7, nil, 8)
	if _, ok := transport.IsPeerFailed(err); !ok {
		t.Fatalf("cross-group send: got %v, want PeerFailedError", err)
	}
	if err := ep.Send(2, transport.CtlPeerDown, nil, 0); err != nil {
		t.Fatalf("control send must cross the partition: %v", err)
	}
	err = ep.Send(2, transport.CtlAgree, nil, 8)
	if _, ok := transport.IsPeerFailed(err); !ok {
		t.Fatalf("cross-group agreement send: got %v, want PeerFailedError (a partition cuts agreement traffic)", err)
	}
	eng.Disable("split")
	if err := ep.Send(2, 7, nil, 8); err != nil {
		t.Fatalf("send after heal failed: %v", err)
	}
}

// TestEngineHoldReorders: a held message is released after the sender's
// next send — delivered to the wire in swapped order — and a hold with no
// following send drains at the next receive entry.
func TestEngineHoldReorders(t *testing.T) {
	r := DataRule("h", OpHold)
	r.Nth = 1
	eng := New(Scenario{Name: "hold", Seed: 1, Rules: []Rule{r}})
	ep := eng.Wrap(newFakeEP(0))

	ep.Send(1, 101, nil, 8) // held
	ep.Send(1, 102, nil, 8) // delivered, then releases the hold
	inner := ep.Inner().(*fakeEP)
	if len(inner.sent) != 2 || inner.sent[0].tag != 102 || inner.sent[1].tag != 101 {
		t.Fatalf("wire order %v, want [102 101]", inner.sent)
	}

	// Second hold window: Nth=1 already consumed, so re-arm via a fresh rule.
	eng.AddRule(Rule{Name: "h2", Proc: AnyProc, To: AnyProc, Tag: 103, Op: OpHold})
	ep.Send(1, 103, nil, 8) // held, no further send follows
	if len(inner.sent) != 2 {
		t.Fatalf("held message leaked to the wire early")
	}
	inner.queue = []*transport.Message{{From: 1, Tag: 9}}
	ep.Recv(1, 9) // receive entry must flush the hold
	if len(inner.sent) != 3 || inner.sent[2].tag != 103 {
		t.Fatalf("hold not flushed at receive: wire %v", inner.sent)
	}
}

// TestEngineNeverHoldsHandlerSends: a send issued from inside the owner's
// receive — the control handler forwarding a revoke, answering an
// agreement latecomer — goes straight to the wire. A hold is released at
// the owner's next receive entry, and the receive such a send would wait
// for is the one it was issued from: held, it would strand its receiver
// for as long as that receive blocks.
func TestEngineNeverHoldsHandlerSends(t *testing.T) {
	eng := New(Scenario{Name: "hold", Seed: 1, Rules: []Rule{DataRule("h", OpHold)}})
	inner := newFakeEP(0)
	ep := eng.Wrap(inner)
	inner.inRecv = func() { ep.Send(1, transport.CtlAgree, nil, 8) }
	ep.Recv(1, 9)
	if len(inner.sent) != 1 || inner.sent[0].tag != transport.CtlAgree {
		t.Fatalf("wire %v after a send from inside Recv, want it delivered at once", inner.sent)
	}
	ep.Send(1, transport.CtlAgree, nil, 8) // from the main flow: held
	if len(inner.sent) != 1 {
		t.Fatalf("wire %v: a main-flow agreement send must still be held", inner.sent)
	}
}

// TestEngineKillAtPoint: OpKill fires the registered action exactly once,
// at the named protocol point, for the named process only.
func TestEngineKillAtPoint(t *testing.T) {
	eng := New(Scenario{Name: "kill", Seed: 1, Rules: []Rule{{
		Name: "k", Proc: 2, Point: transport.PointUlfmRevoked, Nth: 1, Op: OpKill,
	}}})
	eng.Install()
	defer eng.Uninstall()
	kills := 0
	eng.OnKill(2, func() { kills++ })

	transport.Hit(1, transport.PointUlfmRevoked) // wrong proc
	transport.Hit(2, transport.PointUlfmAgreed)  // wrong point
	transport.Hit(2, transport.PointUlfmRevoked) // fires
	transport.Hit(2, transport.PointUlfmRevoked) // Nth=1 consumed
	if kills != 1 {
		t.Fatalf("kill fired %d times, want 1:\n%s", kills, eng)
	}
}

// recordConn captures writes for the resetConn test.
type recordConn struct {
	net.Conn
	wrote  []byte
	closed bool
}

func (c *recordConn) Write(p []byte) (int, error) {
	c.wrote = append(c.wrote, p...)
	return len(p), nil
}
func (c *recordConn) Close() error { c.closed = true; return nil }

// TestResetConnCutsMidFrame: an OpReset rule lets exactly CutAfter bytes
// of the matched write through, severs the connection, and reports
// ErrReset to the writer (whose transport then redials and resends).
func TestResetConnCutsMidFrame(t *testing.T) {
	eng := New(Scenario{Name: "reset", Seed: 1, Rules: []Rule{{
		Name: "cut", Proc: AnyProc, Op: OpReset, Nth: 2, CutAfter: 5,
	}}})
	wrap := eng.WrapConn(3)
	rc := &recordConn{}
	conn := wrap(rc, true)

	frame := []byte("0123456789abcdef")
	if _, err := conn.Write(frame); err != nil {
		t.Fatalf("first write: %v", err)
	}
	n, err := conn.Write(frame)
	if !errors.Is(err, ErrReset) {
		t.Fatalf("second write: got (%d, %v), want ErrReset", n, err)
	}
	if n != 5 {
		t.Errorf("cut wrote %d bytes, want 5", n)
	}
	if got := len(rc.wrote); got != len(frame)+5 {
		t.Errorf("wire carries %d bytes, want %d (one full frame + 5-byte cut)", got, len(frame)+5)
	}
	if !rc.closed {
		t.Errorf("connection not severed after the cut")
	}
	if _, err := conn.Write(frame); !errors.Is(err, ErrReset) {
		t.Errorf("write after severing: got %v, want ErrReset", err)
	}

	// The accepted side is never wrapped: faults are injected at the writer.
	if inbound := wrap(rc, false); inbound != net.Conn(rc) {
		t.Errorf("inbound conn was wrapped")
	}
}

// TestPresets: every named preset builds, and unknown names are rejected
// with the list of valid spellings.
func TestPresets(t *testing.T) {
	for _, name := range PresetNames() {
		sc, err := Preset(name, 7)
		if err != nil {
			t.Errorf("Preset(%q): %v", name, err)
			continue
		}
		if sc.Seed != 7 || len(sc.Rules) == 0 {
			t.Errorf("Preset(%q) = %+v: want seed 7 and at least one rule", name, sc)
		}
	}
	if _, err := Preset("no-such-preset", 1); err == nil {
		t.Errorf("unknown preset accepted")
	}
}

// TestEngineDelay: a delayed message reaches the wire only after the
// configured deferral, and Quiesce waits for in-flight deliveries.
func TestEngineDelay(t *testing.T) {
	r := DataRule("d", OpDelay)
	r.Nth = 1
	r.Delay = 30 * time.Millisecond
	eng := New(Scenario{Name: "delay", Seed: 1, Rules: []Rule{r}})
	ep := eng.Wrap(newFakeEP(0))

	start := time.Now()
	if err := ep.Send(1, 7, nil, 8); err != nil {
		t.Fatalf("send: %v", err)
	}
	eng.Quiesce()
	elapsed := time.Since(start)
	inner := ep.Inner().(*fakeEP)
	if len(inner.sent) != 1 {
		t.Fatalf("%d sends reached the wire after Quiesce, want 1", len(inner.sent))
	}
	if elapsed < 30*time.Millisecond {
		t.Errorf("delayed delivery completed after %v, want >= 30ms", elapsed)
	}
}
