package tcpnet

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/vtime"
)

// pair builds two connected endpoints with ids 0 and 1.
func pair(t *testing.T) (*Endpoint, *Endpoint) {
	t.Helper()
	cfg := Config{DialRetries: 3, DialBackoff: 10 * time.Millisecond, DialTimeout: time.Second}
	a, err := Listen("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatalf("listen a: %v", err)
	}
	b, err := Listen("127.0.0.1:0", cfg)
	if err != nil {
		a.Close()
		t.Fatalf("listen b: %v", err)
	}
	peers := map[transport.ProcID]string{0: a.Addr(), 1: b.Addr()}
	a.Start(0, peers)
	b.Start(1, peers)
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

func TestSendRecvRoundTrip(t *testing.T) {
	a, b := pair(t)

	data := []float64{1, 2, 3}
	if err := a.Send(1, 7, data, 24); err != nil {
		t.Fatalf("send: %v", err)
	}
	m, err := b.Recv(0, 7)
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	if m.From != 0 || m.To != 1 || m.Tag != 7 || m.Bytes != 24 {
		t.Fatalf("bad envelope: %+v", m)
	}
	if !reflect.DeepEqual(m.Data, data) {
		t.Fatalf("payload %v, want %v", m.Data, data)
	}

	// And the other direction over b's dial-side connection.
	if err := b.Send(0, 9, []int{5}, 8); err != nil {
		t.Fatalf("reverse send: %v", err)
	}
	m, err = a.Recv(transport.AnySource, 9)
	if err != nil {
		t.Fatalf("reverse recv: %v", err)
	}
	if m.From != 1 || !reflect.DeepEqual(m.Data, []int{5}) {
		t.Fatalf("reverse message: %+v", m)
	}
}

func TestTagAndSourceMatching(t *testing.T) {
	a, b := pair(t)

	// Two tags in flight; Recv must match by tag, not arrival order.
	if err := a.Send(1, 1, []int{1}, 8); err != nil {
		t.Fatalf("send: %v", err)
	}
	if err := a.Send(1, 2, []int{2}, 8); err != nil {
		t.Fatalf("send: %v", err)
	}
	m, err := b.Recv(0, 2)
	if err != nil {
		t.Fatalf("recv tag 2: %v", err)
	}
	if !reflect.DeepEqual(m.Data, []int{2}) {
		t.Fatalf("tag 2 delivered %v", m.Data)
	}
	m, err = b.Recv(0, 1)
	if err != nil {
		t.Fatalf("recv tag 1: %v", err)
	}
	if !reflect.DeepEqual(m.Data, []int{1}) {
		t.Fatalf("tag 1 delivered %v", m.Data)
	}
}

func TestTryRecvNonBlocking(t *testing.T) {
	a, b := pair(t)

	if m, err := b.TryRecv(0, 3); m != nil || err != nil {
		t.Fatalf("empty TryRecv = (%v, %v), want (nil, nil)", m, err)
	}
	if err := a.Send(1, 3, nil, 0); err != nil {
		t.Fatalf("send: %v", err)
	}
	var m *transport.Message
	arrived := vtime.WaitUntil(5*time.Second, func() bool {
		var err error
		m, err = b.TryRecv(0, 3)
		if err != nil {
			t.Fatalf("TryRecv: %v", err)
		}
		return m != nil
	})
	if !arrived {
		t.Fatal("message never arrived")
	}
	if m.Data != nil {
		t.Fatalf("nil payload arrived as %v", m.Data)
	}
}

func TestMarkDeadWakesRecvAndRunsHandler(t *testing.T) {
	a, _ := pair(t)

	var notices []transport.ProcID
	a.SetCtlHandler(func(m *transport.Message) error {
		if m.Tag == transport.CtlPeerDown {
			notices = append(notices, m.From)
		}
		return nil
	})

	go func() {
		//lint:ignore sleepytest the delay lets Recv block first so the death notice exercises the wakeup path, not the fast path
		time.Sleep(20 * time.Millisecond)
		a.MarkDead(1)
	}()
	// Blocked on a peer that gets declared dead: the ctl notice drains
	// through the handler and the Recv reports the failure.
	_, err := a.Recv(1, 5)
	var pf *transport.PeerFailedError
	if !errors.As(err, &pf) || pf.Proc != 1 {
		t.Fatalf("recv after MarkDead = %v, want PeerFailedError{1}", err)
	}
	if len(notices) != 1 || notices[0] != 1 {
		t.Fatalf("ctl notices = %v, want [1]", notices)
	}

	// Subsequent sends fail fast.
	if err := a.Send(1, 5, nil, 0); err == nil {
		t.Fatal("send to dead peer succeeded")
	}
	// MarkDead is idempotent: no duplicate notice.
	a.MarkDead(1)
	if err := a.PollCtl(); err != nil {
		t.Fatalf("PollCtl: %v", err)
	}
	if len(notices) != 1 {
		t.Fatalf("duplicate CtlPeerDown delivered: %v", notices)
	}
}

// TestCloseInsideCtlHandlerEndsRecv: a control handler runs with the
// endpoint unlocked, so a Close can land while a Recv drains notices
// (a chaos kill while the rank agrees on a failure). Its Broadcast then
// finds no waiter, and the Recv must still see the endpoint closed
// instead of waiting forever.
func TestCloseInsideCtlHandlerEndsRecv(t *testing.T) {
	a, _ := pair(t)
	a.SetCtlHandler(func(m *transport.Message) error {
		a.Close()
		return nil
	})
	a.MarkDead(1)
	done := make(chan error, 1)
	go func() {
		_, err := a.Recv(transport.AnySource, 5)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, transport.ErrDead) {
			t.Fatalf("recv on an endpoint closed by its handler = %v, want ErrDead", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("recv still blocked 5 s after its handler closed the endpoint")
	}
}

func TestDeliveredDataBeatsFailureNotice(t *testing.T) {
	a, b := pair(t)

	if err := a.Send(1, 4, []int{42}, 8); err != nil {
		t.Fatalf("send: %v", err)
	}
	// Wait for delivery, then declare the sender dead.
	if !vtime.WaitUntil(5*time.Second, func() bool { return b.QueueLen() > 0 }) {
		t.Fatal("message never queued")
	}
	b.MarkDead(0)
	// The already-delivered message completes the Recv; the failure only
	// surfaces afterwards. (Handler swallows the notice, as mpi's does
	// outside an operation scope.)
	b.SetCtlHandler(func(m *transport.Message) error { return nil })
	m, err := b.Recv(0, 4)
	if err != nil {
		t.Fatalf("recv of delivered data = %v", err)
	}
	if !reflect.DeepEqual(m.Data, []int{42}) {
		t.Fatalf("payload %v", m.Data)
	}
	if _, err := b.Recv(0, 4); err == nil {
		t.Fatal("second recv from dead peer succeeded")
	}
}

func TestSendErrors(t *testing.T) {
	a, _ := pair(t)

	// Unknown destination.
	err := a.Send(9, 1, nil, 0)
	var unk *transport.UnknownProcError
	if !errors.As(err, &unk) {
		t.Fatalf("send to unknown = %v, want UnknownProcError", err)
	}

	// Oversized payloads are usage errors, not peer failures.
	small, err2 := Listen("127.0.0.1:0", Config{MaxFrame: 256})
	if err2 != nil {
		t.Fatalf("listen: %v", err2)
	}
	defer small.Close()
	small.Start(5, map[transport.ProcID]string{6: a.Addr()})
	err = small.Send(6, 1, make([]float64, 1024), 8192)
	if err == nil {
		t.Fatal("oversized send succeeded")
	}
	if _, isPeer := transport.IsPeerFailed(err); isPeer {
		t.Fatalf("oversized send misreported as peer failure: %v", err)
	}
}

func TestUnreachablePeerIsFailure(t *testing.T) {
	cfg := Config{DialRetries: 2, DialBackoff: 5 * time.Millisecond, DialTimeout: 200 * time.Millisecond}
	a, err := Listen("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer a.Close()
	// Grab a port nobody listens on by binding and releasing it.
	b, err := Listen("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatalf("listen b: %v", err)
	}
	deadAddr := b.Addr()
	b.Close()
	a.Start(0, map[transport.ProcID]string{1: deadAddr})
	err = a.Send(1, 1, []int{1}, 8)
	if proc, ok := transport.IsPeerFailed(err); !ok || proc != 1 {
		t.Fatalf("send to unreachable = %v, want PeerFailedError{1}", err)
	}
}

func TestCloseUnblocksAndReportsDead(t *testing.T) {
	a, b := pair(t)

	errc := make(chan error, 1)
	go func() {
		_, err := b.Recv(0, 11)
		errc <- err
	}()
	//lint:ignore sleepytest grace period so Recv is parked in its select before Close races it; either order is correct, this one is the case under test
	time.Sleep(20 * time.Millisecond)
	b.Close()
	select {
	case err := <-errc:
		if err != transport.ErrDead {
			t.Fatalf("recv on closed endpoint = %v, want ErrDead", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not unblock Recv")
	}
	if err := b.Send(0, 1, nil, 0); err != transport.ErrDead {
		t.Fatalf("send on closed endpoint = %v, want ErrDead", err)
	}
	select {
	case <-b.Done():
	default:
		t.Fatal("Done channel not closed")
	}
	_ = a
}

func TestVClockAdvances(t *testing.T) {
	a, _ := pair(t)
	t0 := a.VClock().Now()
	if !vtime.WaitUntil(5*time.Second, func() bool { return a.VClock().Now() > t0 }) {
		t.Fatalf("clock did not advance past %v", t0)
	}
}
