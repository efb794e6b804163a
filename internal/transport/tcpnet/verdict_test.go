package tcpnet_test

// A verdict ends the wait. Every test here runs on the shipped defaults
// (tcpnet.Config{}: 5 retries, 50 ms doubling back-off, 2 s dial timeout)
// — the configuration cmd/elasticd runs, and the one whose 1.55 s of
// back-off the tuned test fixtures never see — and asserts that MarkDead
// and Close release a sender wherever it waits (back-off, dial, write)
// without ever waiting on it themselves. Each test ends with the leak
// postconditions: pooled frame buffers back at their baseline and no
// transport goroutine left.

import (
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/transport/chaos"
	"repro/internal/transport/tcpnet"
	"repro/internal/vtime"
)

// counter reads one of the transport's live counters from the process
// registry. Tests compare deltas: the registry is process-global.
func counter(t *testing.T, name string) float64 {
	t.Helper()
	v, ok := obs.Default().Value(name)
	if !ok {
		t.Fatalf("metric %s is not registered", name)
	}
	return v
}

// defaultEndpoint opens an endpoint as proc 0 on the shipped defaults,
// with proc 1 at peerAddr, and checks the leak postconditions when the
// test ends.
func defaultEndpoint(t *testing.T, peerAddr string) *tcpnet.Endpoint {
	t.Helper()
	base := tcpnet.OutstandingFrameBufs()
	ep, err := tcpnet.Listen("127.0.0.1:0", tcpnet.Config{})
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ep.Start(0, map[transport.ProcID]string{1: peerAddr})
	t.Cleanup(func() {
		ep.Close()
		// At or below: an earlier test's teardown may still have been
		// handing buffers back when the baseline was read.
		if !vtime.WaitUntil(5*time.Second, func() bool { return tcpnet.OutstandingFrameBufs() <= base }) {
			t.Errorf("%d pooled frame buffers outstanding, %d before the test", tcpnet.OutstandingFrameBufs(), base)
		}
		if s := chaos.Leaked(5 * time.Second); s != "" {
			t.Errorf("goroutines leaked:\n%s", s)
		}
	})
	return ep
}

// goneAddr returns a loopback address whose listener has just closed:
// dials to it are refused at once, like a SIGKILLed worker's port.
func goneAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// blackhole listens, accepts one connection and never reads from it —
// a SIGSTOPped peer, or a host gone without an RST. The returned channel
// is closed once the connection is accepted, i.e. once the sender is past
// its dial and into the write.
func blackhole(t *testing.T) (addr string, accepted <-chan struct{}) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	acc := make(chan struct{})
	held := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		held <- conn
		close(acc)
	}()
	t.Cleanup(func() {
		ln.Close()
		select {
		case conn := <-held:
			conn.Close()
		default:
		}
	})
	return ln.Addr().String(), acc
}

// within runs fn on its own goroutine and fails the test if it has not
// returned after d: the shape of "MarkDead/Close must not block behind a
// sender".
func within(t *testing.T, d time.Duration, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s still blocked after %v", what, d)
	}
}

// sendResult waits for an in-flight Send's error.
func sendResult(t *testing.T, errc <-chan error) error {
	t.Helper()
	select {
	case err := <-errc:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("Send never returned")
		return nil
	}
}

func wantPeerFailed(t *testing.T, err error, proc transport.ProcID) {
	t.Helper()
	var pf *transport.PeerFailedError
	if !errors.As(err, &pf) || pf.Proc != proc {
		t.Fatalf("Send = %v, want PeerFailedError{%d}", err, proc)
	}
}

// bulkPayloads are 32 MiB sends, far past what loopback socket buffers
// absorb, down each of the two write paths: writev straight from the
// caller's slice, and an assembled frame through the buffered writer.
var bulkPayloads = []struct {
	name string
	make func() any
}{
	{"writev", func() any { return make([]float64, 4<<20) }},
	{"assembled", func() any { return make([]int, 4<<20) }},
}

// wedgedSend starts a bulk Send toward a peer that accepts and never
// reads, and returns once the sender is connected and into its write.
func wedgedSend(t *testing.T, payload any) (*tcpnet.Endpoint, <-chan error) {
	t.Helper()
	addr, accepted := blackhole(t)
	ep := defaultEndpoint(t, addr)
	errc := make(chan error, 1)
	go func() { errc <- ep.Send(1, 7, payload, 32<<20) }()
	select {
	case <-accepted:
	case <-time.After(5 * time.Second):
		t.Fatal("sender never connected")
	}
	return ep, errc
}

// retryingSend starts a Send toward a refused address and returns once
// its third retry is counted: the sender is a millisecond into its 200 ms
// back-off, with 400 and 800 ms still to come.
func retryingSend(t *testing.T, addr string) (*tcpnet.Endpoint, <-chan error) {
	t.Helper()
	ep := defaultEndpoint(t, addr)
	retries0 := counter(t, "tcpnet_dial_retries_total")
	errc := make(chan error, 1)
	go func() { errc <- ep.Send(1, 7, []float64{1}, 8) }()
	if !vtime.WaitUntil(5*time.Second, func() bool {
		return counter(t, "tcpnet_dial_retries_total") >= retries0+3
	}) {
		t.Fatal("sender never started retrying")
	}
	return ep, errc
}

// TestMarkDeadInterruptsBackoff: a sender retrying toward a corpse stops
// the moment the verdict lands, instead of sitting out what is left of
// 50+100+200+400+800 ms.
func TestMarkDeadInterruptsBackoff(t *testing.T) {
	ep, errc := retryingSend(t, goneAddr(t))
	atVerdict := counter(t, "tcpnet_dial_retries_total")
	t0 := time.Now()
	ep.MarkDead(1)
	wantPeerFailed(t, sendResult(t, errc), 1)
	if d := time.Since(t0); d > 200*time.Millisecond {
		t.Errorf("Send returned %v after the verdict, want < 200ms", d)
	}
	if got := counter(t, "tcpnet_dial_retries_total"); got != atVerdict {
		t.Errorf("%v retries taken after the verdict", got-atVerdict)
	}
}

// TestMarkDeadReleasesBlockedWrite: the verdict closes the connection
// underneath a Send blocked in write(2) — and MarkDead itself, which on
// the rendezvous notification reader's goroutine gates every later
// verdict, does not wait for that Send.
func TestMarkDeadReleasesBlockedWrite(t *testing.T) {
	for _, tc := range bulkPayloads {
		t.Run(tc.name, func(t *testing.T) {
			ep, errc := wedgedSend(t, tc.make())
			within(t, time.Second, "MarkDead", func() { ep.MarkDead(1) })
			wantPeerFailed(t, sendResult(t, errc), 1)
		})
	}
}

// TestCloseReleasesBlockedWrite is the same wedge ended by Close: the
// Send reports ErrDead and Close returns.
func TestCloseReleasesBlockedWrite(t *testing.T) {
	for _, tc := range bulkPayloads {
		t.Run(tc.name, func(t *testing.T) {
			ep, errc := wedgedSend(t, tc.make())
			within(t, time.Second, "Close", func() { ep.Close() })
			if err := sendResult(t, errc); err != transport.ErrDead {
				t.Fatalf("Send = %v, want ErrDead", err)
			}
		})
	}
}

// TestDeadPeerIsNeverDialed: neither a Send to a peer already declared
// dead nor one whose peer is declared dead between attempts opens a
// connection, even though in both cases a dial would succeed.
func TestDeadPeerIsNeverDialed(t *testing.T) {
	t.Run("already_dead", func(t *testing.T) {
		addr, _ := blackhole(t)
		ep := defaultEndpoint(t, addr)
		dials0 := counter(t, "tcpnet_dials_total")
		retries0 := counter(t, "tcpnet_dial_retries_total")
		ep.MarkDead(1)
		wantPeerFailed(t, ep.Send(1, 7, []float64{1}, 8), 1)
		if d := counter(t, "tcpnet_dials_total") - dials0; d != 0 {
			t.Errorf("%v dials to a peer already declared dead", d)
		}
		if d := counter(t, "tcpnet_dial_retries_total") - retries0; d != 0 {
			t.Errorf("%v retries toward a peer already declared dead", d)
		}
	})
	t.Run("between_attempts", func(t *testing.T) {
		addr := goneAddr(t)
		dials0 := counter(t, "tcpnet_dials_total")
		ep, errc := retryingSend(t, addr)
		// Bring the address back, so that the next attempt — were there
		// one — would connect and the Send succeed.
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			t.Skipf("could not rebind %s: %v", addr, err)
		}
		defer ln.Close()
		ep.MarkDead(1)
		wantPeerFailed(t, sendResult(t, errc), 1)
		if d := counter(t, "tcpnet_dials_total") - dials0; d != 0 {
			t.Errorf("%v dials after the peer was declared dead", d)
		}
	})
}
