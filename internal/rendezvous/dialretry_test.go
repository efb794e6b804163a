package rendezvous

import (
	"encoding/json"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/transport"
)

// TestJoinRetriesUntilServerListens pins the startup-order contract:
// workers and the rendezvous-hosting lead launch in arbitrary order, so
// a join against a not-yet-listening address must retry inside its
// Timeout instead of failing on the first refused dial.
func TestJoinRetriesUntilServerListens(t *testing.T) {
	// Reserve an address nobody is listening on yet.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	joined := make(chan error, 1)
	go func() {
		cl, err := JoinWith(addr, JoinOptions{
			SelfAddr: "127.0.0.1:20999",
			Timeout:  10 * time.Second,
		})
		if err == nil {
			cl.Close()
		}
		joined <- err
	}()

	// Let the client hit at least one refused dial before the server
	// appears. The dial attempts happen inside JoinWith and are not
	// observable from here, so this window cannot be converted to a
	// condition poll: it asserts the server is ABSENT first.
	//lint:ignore sleepytest absence window: the client must see a refused dial before the late bind
	<-time.After(300 * time.Millisecond)
	srvLn, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("rebind reserved addr: %v", err)
	}
	s := Serve(srvLn, Config{World: 1})
	defer s.Close()

	select {
	case err := <-joined:
		if err != nil {
			t.Fatalf("join did not survive the late server start: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("join never completed")
	}
}

// TestJoinWithoutTimeoutFailsFast pins the zero-Timeout behavior: a
// single dial attempt, surfacing the refused connection immediately.
func TestJoinWithoutTimeoutFailsFast(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	start := time.Now()
	_, err = JoinWith(addr, JoinOptions{SelfAddr: "127.0.0.1:20998"})
	if err == nil {
		t.Fatal("join against a dead address succeeded")
	}
	var opErr *net.OpError
	if !errors.As(err, &opErr) {
		t.Fatalf("want a net error, got %v", err)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("zero-timeout join retried for %v, want immediate failure", d)
	}
}

// TestDeltaOvertakingWelcome: the server writes a joiner's deltas and the
// world's welcomes from different connection goroutines, so a spare that
// registers as the world gathers can have its spareup reach a member
// before that member's welcome does. The member must still read its own
// identity out of the welcome — proc 0's welcome omits "proc" (omitempty),
// and a decoder reusing the struct the delta was read into handed the lead
// the spare's ProcID, about once in 150 launches of the benchmark's
// kill_swap world — and must still hear about the spare once it listens.
func TestDeltaOvertakingWelcome(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	served := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		enc := json.NewEncoder(conn)
		var join wireMsg
		if json.NewDecoder(conn).Decode(&join) == nil {
			enc.Encode(&wireMsg{Op: "spareup", Proc: 4, Addr: "127.0.0.1:4004", Ver: 5})
			enc.Encode(&wireMsg{Op: "welcome", Proc: 0, Rank: 0, World: 2, HBMillis: 1000, Ver: 4,
				Peers: map[string]string{"0": "127.0.0.1:4000", "1": "127.0.0.1:4001"}})
		}
		served <- conn
	}()

	cl, err := JoinWith(ln.Addr().String(), JoinOptions{SelfAddr: "127.0.0.1:4000", Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	defer func() { (<-served).Close() }()
	if cl.Proc() != 0 || cl.Rank() != 0 {
		t.Fatalf("joined as proc %d rank %d, want proc 0 rank 0: the delta read before the welcome leaked into it", cl.Proc(), cl.Rank())
	}

	spareUp := make(chan transport.ProcID, 1)
	cl.StartNotify(Notifications{OnSpareUp: func(p transport.ProcID, addr string) {
		if addr == "127.0.0.1:4004" {
			spareUp <- p
		}
	}})
	select {
	case p := <-spareUp:
		if p != 4 {
			t.Fatalf("OnSpareUp(%d), want 4", p)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the spareup that overtook the welcome was never delivered")
	}
	if got := cl.SpareProcs(); len(got) != 1 || got[0] != 4 {
		t.Fatalf("SpareProcs() = %v, want [4]", got)
	}
}
