package rendezvous

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/vtime"
)

// quietServer hosts a hub whose sweep cannot convict anyone within a
// test, so members that never start heartbeating stay members.
func quietServer(t *testing.T, world int) *Server {
	t.Helper()
	cfg := noTimers(nil)
	cfg.World = world
	s, err := ListenAndServe("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// joinWorld joins world members concurrently (Join blocks until the
// world gathers) and returns them once all welcomes have arrived.
func joinWorld(t *testing.T, s *Server, world int) []*Client {
	t.Helper()
	type res struct {
		cl  *Client
		err error
	}
	done := make(chan res, world)
	for i := 0; i < world; i++ {
		go func(i int) {
			cl, err := Join(s.Addr(), fmt.Sprintf("127.0.0.1:%d", 20000+i), 10*time.Second)
			done <- res{cl, err}
		}(i)
	}
	out := make([]*Client, 0, world)
	for i := 0; i < world; i++ {
		r := <-done
		if r.err != nil {
			t.Fatal(r.err)
		}
		cl := r.cl
		t.Cleanup(func() { cl.Abandon() })
		out = append(out, cl)
	}
	return out
}

func spareJoin(t *testing.T, s *Server, i int) *Client {
	t.Helper()
	cl, err := JoinWith(s.Addr(), JoinOptions{
		SelfAddr: fmt.Sprintf("127.0.0.1:%d", 40000+i),
		Timeout:  10 * time.Second,
		Spare:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Abandon() })
	return cl
}

// TestSpareLifecycle walks a spare through the whole pool protocol:
// registration after the world gathers (spareup deltas to every
// member, rank -1 welcome with the world's address map, excluded from
// the world peer maps), then activation by a member (peerup to
// everyone, pool entry removed on all clients).
func TestSpareLifecycle(t *testing.T) {
	s := quietServer(t, 2)
	members := joinWorld(t, s, 2)
	for _, cl := range members {
		cl.StartNotify(Notifications{})
	}

	sp := spareJoin(t, s, 0)
	if sp.Rank() != -1 {
		t.Fatalf("spare rank %d, want -1", sp.Rank())
	}
	if got := len(sp.Peers()); got != 2 {
		t.Fatalf("spare welcome carried %d peers, want the 2 world members", got)
	}

	// Every member learns the spare through a spareup delta; the world
	// map stays two members.
	for i, cl := range members {
		if !vtime.WaitUntil(5*time.Second, func() bool {
			return len(cl.Spares()) == 1
		}) {
			t.Fatalf("member %d never saw the spare", i)
		}
		if got := cl.Spares()[sp.Proc()]; got == "" {
			t.Fatalf("member %d spare map lacks proc %d: %v", i, sp.Proc(), cl.Spares())
		}
		if got := len(cl.Procs()); got != 2 {
			t.Fatalf("member %d world grew to %d on spare registration", i, got)
		}
	}
	if got := s.MapVersion(); got == 0 {
		t.Fatal("spare registration did not bump the map version")
	}

	// A member activates the spare after a (notional) Grow: the pool
	// drains and the world converges on three members everywhere.
	if err := members[0].Activate(sp.Proc()); err != nil {
		t.Fatal(err)
	}
	for i, cl := range members {
		if !vtime.WaitUntil(5*time.Second, func() bool {
			return len(cl.Spares()) == 0 && len(cl.Procs()) == 3
		}) {
			t.Fatalf("member %d never converged on the activation: spares=%v procs=%v",
				i, cl.Spares(), cl.Procs())
		}
	}
}

// TestSpareRegisteredBeforeWorldGathers: a spare that joins first must
// not consume a world slot — the world still waits for two full
// members — and is announced to them at world-send time.
func TestSpareRegisteredBeforeWorldGathers(t *testing.T) {
	s := quietServer(t, 2)

	spare := make(chan *Client, 1)
	go func() {
		cl, err := JoinWith(s.Addr(), JoinOptions{
			SelfAddr: "127.0.0.1:40100",
			Timeout:  10 * time.Second,
			Spare:    true,
		})
		if err != nil {
			t.Error(err)
			spare <- nil
			return
		}
		spare <- cl
	}()

	members := joinWorld(t, s, 2)
	sp := <-spare
	if sp == nil {
		t.Fatal("spare join failed")
	}
	t.Cleanup(func() { sp.Abandon() })
	for i, cl := range members {
		cl.StartNotify(Notifications{})
		if !vtime.WaitUntil(5*time.Second, func() bool {
			return len(cl.Spares()) == 1
		}) {
			t.Fatalf("member %d never saw the early spare", i)
		}
		if got := len(cl.Peers()); got != 2 {
			t.Fatalf("member %d welcome world is %d, want 2", i, got)
		}
	}
}

// TestLateSpareHearsEarlierSpares: spares registered after the world
// gathers learn of each other in both directions — the later one from
// spareup deltas that follow its welcome — so two spares admitted at
// one boundary can dial each other.
func TestLateSpareHearsEarlierSpares(t *testing.T) {
	s := quietServer(t, 1)
	joinWorld(t, s, 1)
	first := spareJoin(t, s, 0)
	first.StartNotify(Notifications{})
	second := spareJoin(t, s, 1)
	second.StartNotify(Notifications{})
	for _, c := range []struct{ cl, other *Client }{{first, second}, {second, first}} {
		if !vtime.WaitUntil(5*time.Second, func() bool { return c.cl.Spares()[c.other.Proc()] != "" }) {
			t.Fatalf("spare %d never heard of spare %d: %v", c.cl.Proc(), c.other.Proc(), c.cl.Spares())
		}
	}
}

// TestSpareDeathDrainsPool: a spare's death removes it from every
// member's pool via the normal peerdown path.
func TestSpareDeathDrainsPool(t *testing.T) {
	s := quietServer(t, 2)
	members := joinWorld(t, s, 2)

	down := make(chan transport.ProcID, 4)
	for _, cl := range members {
		cl.StartNotify(Notifications{OnPeerDown: func(p transport.ProcID) { down <- p }})
	}

	sp := spareJoin(t, s, 1)
	for i, cl := range members {
		if !vtime.WaitUntil(5*time.Second, func() bool { return len(cl.Spares()) == 1 }) {
			t.Fatalf("member %d never saw the spare", i)
		}
	}

	// kill -9 the spare: the connection drops and the hub convicts on
	// the close alone.
	sp.Abandon()
	for i, cl := range members {
		if !vtime.WaitUntil(5*time.Second, func() bool { return len(cl.Spares()) == 0 }) {
			t.Fatalf("member %d pool never drained", i)
		}
	}
	select {
	case p := <-down:
		if p != sp.Proc() {
			t.Fatalf("peerdown named %d, want spare %d", p, sp.Proc())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no peerdown delivered for the dead spare")
	}
}
