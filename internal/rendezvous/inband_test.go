package rendezvous

// In-band conviction: in heartbeat mode the unclean close of a member's
// control connection is the death, acted on when the hub reads it. These
// tests run the hub at HeartbeatInterval: time.Hour wherever a verdict is
// expected, so no timer can have produced it.

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/vtime"
)

// noTimers is a heartbeat-mode configuration whose sweep cannot convict
// (or even suspect) anyone within a test.
func noTimers(rec *trace.Recorder) Config {
	return Config{HeartbeatInterval: time.Hour, Trace: rec}
}

// rawJoin speaks the join by hand, so a test controls exactly when and how
// the connection ends, and returns once the hub has registered it — with
// the ProcID it got. The welcome (if the world has gathered) is left
// unread.
func rawJoin(t *testing.T, s *Server, addr string) (net.Conn, transport.ProcID) {
	t.Helper()
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	fmt.Fprintf(conn, `{"op":"join","addr":%q}`+"\n", addr)
	proc := transport.ProcID(-1)
	if !vtime.WaitUntil(3*time.Second, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		for id, mm := range s.members {
			if mm.addr == addr {
				proc = id
			}
		}
		return proc >= 0
	}) {
		t.Fatalf("raw joiner at %s never registered", addr)
	}
	return conn, proc
}

func TestUncleanCloseConvictsAtOnce(t *testing.T) {
	var journal syncBuf
	srv, cls := gather(t, 3, noTimers(trace.New(&journal)))
	chans := make([]<-chan transport.ProcID, len(cls))
	for i, cl := range cls {
		chans[i], _ = collectDown(cl)
	}
	ver0 := srv.MapVersion()
	byConn0, byTimeout0 := obsConvictions[causeConnection].Value(), obsConvictions[causeTimeout].Value()

	victim := cls[1]
	victim.Abandon() // kill -9: the kernel closes the socket
	for i, cl := range cls {
		if cl != victim {
			waitDown(t, chans[i], victim.Proc(), 2*time.Second)
		}
	}

	if got := fmt.Sprint(journalKinds(t, journal.String(), victim.Proc())); got != "[member_join conn_dead]" {
		t.Errorf("victim's journal = %s, want [member_join conn_dead]: no suspicion is ever logged for a closed socket", got)
	}
	if got := srv.MapVersion(); got != ver0+1 {
		t.Errorf("map version %d -> %d, want one bump for one death", ver0, got)
	}
	if d := obsConvictions[causeConnection].Value() - byConn0; d != 1 {
		t.Errorf("rendezvous_convictions_total{cause=connection} moved by %d, want 1", d)
	}
	if d := obsConvictions[causeTimeout].Value() - byTimeout0; d != 0 {
		t.Errorf("rendezvous_convictions_total{cause=timeout} moved by %d, want 0", d)
	}
	for _, cl := range cls {
		if cl != victim && len(cl.Procs()) != 2 {
			t.Errorf("proc %d's world = %v, want the two survivors", cl.Proc(), cl.Procs())
		}
	}
}

// TestLeaveThenCloseIsLeft: every clean departure is a leave followed by
// the same EOF a death produces. The leave must win: one member_leave,
// survivors told "left", and the EOF behind it convicts nobody. The
// leaver is a raw connection so the test can wait for the hub to close
// its end, which it does only after the handler has processed the EOF.
func TestLeaveThenCloseIsLeft(t *testing.T) {
	var journal syncBuf
	cfg := noTimers(trace.New(&journal))
	cfg.World = 2
	srv, err := ListenAndServe("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	leaver, leaverProc := rawJoin(t, srv, "127.0.0.1:9101")
	observer, err := Join(srv.Addr(), "127.0.0.1:9102", 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer observer.Abandon()
	left := make(chan transport.ProcID, 4)
	died := make(chan transport.ProcID, 4)
	observer.StartNotify(Notifications{
		OnPeerDown: func(p transport.ProcID) { died <- p },
		OnPeerLeft: func(p transport.ProcID) { left <- p },
	})
	byConn0 := obsConvictions[causeConnection].Value()

	fmt.Fprintf(leaver, `{"op":"leave"}`+"\n")
	for sc := bufio.NewScanner(leaver); sc.Scan(); { // the welcome, then EOF once the hub's handler is done
	}
	waitDown(t, left, leaverProc, 2*time.Second)
	select {
	case p := <-died:
		t.Fatalf("proc %d announced as dead; it left", p)
	default:
	}
	if got := fmt.Sprint(journalKinds(t, journal.String(), leaverProc)); got != "[member_join member_leave]" {
		t.Errorf("leaver's journal = %s, want [member_join member_leave]", got)
	}
	if d := obsConvictions[causeConnection].Value() - byConn0; d != 0 {
		t.Errorf("a leave counted as %d connection convictions", d)
	}
}

// TestSpareUncleanCloseDrainsPool: a warm spare that is killed leaves the
// pool the same way a member leaves the world — at once, on the close.
func TestSpareUncleanCloseDrainsPool(t *testing.T) {
	srv, members := gather(t, 2, noTimers(nil))
	down := make(chan transport.ProcID, 4)
	for _, cl := range members {
		cl.StartNotify(Notifications{OnPeerDown: func(p transport.ProcID) { down <- p }})
	}
	sp := spareJoin(t, srv, 2)
	for i, cl := range members {
		if !vtime.WaitUntil(5*time.Second, func() bool { return len(cl.Spares()) == 1 }) {
			t.Fatalf("member %d never saw the spare", i)
		}
	}
	spares0 := obsSpares.Value()

	sp.Abandon()
	for range members {
		waitDown(t, down, sp.Proc(), 2*time.Second)
	}
	for i, cl := range members {
		if n := len(cl.Spares()); n != 0 {
			t.Errorf("member %d still holds %d spares after the peerdown", i, n)
		}
		if n := len(cl.Procs()); n != 2 {
			t.Errorf("member %d's world = %v; a spare's death must not shrink it", i, cl.Procs())
		}
	}
	if d := spares0 - obsSpares.Value(); d != 1 {
		t.Errorf("rendezvous_spares fell by %v, want 1", d)
	}
}

// TestServerCloseConvictsNobody: Close drops every member's connection
// from the hub's side. Those are not deaths: nothing is journaled, the
// map does not move, nobody is told anything — except that each client's
// OnHubLost fires, once.
func TestServerCloseConvictsNobody(t *testing.T) {
	var journal syncBuf
	srv, cls := gather(t, 3, noTimers(trace.New(&journal)))
	down := make(chan transport.ProcID, 16)
	lost := make(chan error, 16)
	for _, cl := range cls {
		cl.StartNotify(Notifications{
			OnPeerDown: func(p transport.ProcID) { down <- p },
			OnHubLost:  func(err error) { lost <- err },
		})
	}
	ver0 := srv.MapVersion()

	srv.Close() // returns once every handler has seen its connection end
	for range cls {
		select {
		case err := <-lost:
			if err == nil {
				t.Error("OnHubLost called with a nil error")
			}
		case <-time.After(2 * time.Second):
			t.Fatal("a client never learned the hub was gone")
		}
	}
	select {
	case p := <-down:
		t.Errorf("proc %d announced down by a closing hub", p)
	case err := <-lost:
		t.Errorf("OnHubLost fired more than once per client: %v", err)
	default:
	}
	if got := srv.MapVersion(); got != ver0 {
		t.Errorf("map version %d -> %d across Close", ver0, got)
	}
	if s := journal.String(); strings.Contains(s, "_dead") {
		t.Errorf("Close journaled a death:\n%s", s)
	}
}

// TestHubLostNotAfterCloseOrAbandon: a client that ended the connection
// itself did not lose the hub.
func TestHubLostNotAfterCloseOrAbandon(t *testing.T) {
	_, cls := gather(t, 2, noTimers(nil))
	lost := make(chan error, 4)
	hub0 := obsHubConnected.Value()
	for _, cl := range cls {
		cl.StartNotify(Notifications{OnHubLost: func(err error) { lost <- err }})
	}
	if d := obsHubConnected.Value() - hub0; d != 2 {
		t.Errorf("rendezvous_hub_connected rose by %v for two started clients", d)
	}
	cls[0].Close() // both wait for the reader to exit
	cls[1].Abandon()
	select {
	case err := <-lost:
		t.Errorf("OnHubLost(%v) on a client that shut down itself", err)
	default:
	}
	if got := obsHubConnected.Value(); got != hub0 {
		t.Errorf("rendezvous_hub_connected = %v after both clients ended, want %v", got, hub0)
	}
}

// TestTimeoutAndCloseRaceBroadcastOnce: a member can run out its DeadAfter
// in the same instant its socket closes. Both paths end in remove; exactly
// one of them may publish. The two calls are raced directly, many times;
// a third member's leave, written to the observer's connection after both
// have returned, is the fence that shows nothing else was written first.
func TestTimeoutAndCloseRaceBroadcastOnce(t *testing.T) {
	for i := 0; i < 25; i++ {
		srv, cls := gather(t, 3, noTimers(nil))
		observer, victim, fence := cls[0], cls[1], cls[2]
		notes := make(chan transport.ProcID, 8)
		observer.Start(func(p transport.ProcID) { notes <- p })
		srv.mu.Lock()
		m := srv.members[victim.Proc()]
		srv.mu.Unlock()
		ver0 := srv.MapVersion()

		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); srv.remove(m.proc, causeTimeout) }()
		go func() { defer wg.Done(); srv.connGone(m) }()
		wg.Wait()
		fence.Close()

		waitDown(t, notes, victim.Proc(), 2*time.Second)
		waitDown(t, notes, fence.Proc(), 2*time.Second) // a second peerdown for the victim would be here
		if got := srv.MapVersion(); got != ver0+2 {
			t.Fatalf("iteration %d: map version %d -> %d, want one bump for the death and one for the leave", i, ver0, got)
		}
		for _, cl := range cls {
			cl.Abandon()
		}
		srv.Close()
	}
}

// TestGossipModeUncleanCloseUnchanged: in gossip mode the hub link is not
// a liveness channel. An unaccused member's dropped connection convicts
// nobody; the death is declared when a member's verdict names it, and
// journaled as that.
func TestGossipModeUncleanCloseUnchanged(t *testing.T) {
	var journal syncBuf
	srv, cls := gather(t, 3, Config{Gossip: true, Trace: trace.New(&journal)})
	observer, victim := cls[0], cls[1]
	ch, _ := collectDown(observer)
	ver0 := srv.MapVersion()

	victim.Abandon()
	if !vtime.WaitUntil(3*time.Second, func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		mm := srv.members[victim.Proc()]
		return mm != nil && mm.gone
	}) {
		t.Fatal("the dropped connection was never marked, or its member was removed")
	}
	if got := srv.MapVersion(); got != ver0 {
		t.Fatalf("a hub-link drop moved the gossip-mode map: version %d -> %d", ver0, got)
	}

	if err := observer.ReportDead(victim.Proc()); err != nil {
		t.Fatal(err)
	}
	waitDown(t, ch, victim.Proc(), 2*time.Second)
	if got := fmt.Sprint(journalKinds(t, journal.String(), victim.Proc())); got != "[member_join gossip_dead]" {
		t.Errorf("victim's journal = %s, want [member_join gossip_dead]", got)
	}
	if got := srv.MapVersion(); got != ver0+1 {
		t.Errorf("map version %d -> %d, want one bump", ver0, got)
	}
}

// TestDropBeforeWelcomeConvictedAfterShip: a connection that drops while
// the world is still gathering cannot be convicted then — its rank is
// already counted, and nobody is there to tell. It ships in the welcome
// and is convicted immediately after, instead of being handed to everyone
// as a live rank and left to time out.
func TestDropBeforeWelcomeConvictedAfterShip(t *testing.T) {
	var journal syncBuf
	cfg := noTimers(trace.New(&journal))
	cfg.World = 3
	srv, err := ListenAndServe("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	early, _ := rawJoin(t, srv, "127.0.0.1:9200") // alone, so proc 0
	early.Close()
	if !vtime.WaitUntil(3*time.Second, func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return srv.members[0].gone
	}) {
		t.Fatal("server never noticed the dropped connection")
	}
	srv.mu.Lock()
	_, still := srv.members[0]
	srv.mu.Unlock()
	if !still || strings.Contains(journal.String(), "_dead") {
		t.Fatalf("member convicted before the world shipped:\n%s", journal.String())
	}

	cls := make([]*Client, 2)
	var wg sync.WaitGroup
	for i := range cls {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			if cls[i], err = Join(srv.Addr(), fmt.Sprintf("127.0.0.1:%d", 9201+i), 10*time.Second); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for _, cl := range cls {
		defer cl.Abandon()
		if cl.World() != 3 {
			t.Errorf("proc %d welcomed into a world of %d, want 3: the corpse's rank ships", cl.Proc(), cl.World())
		}
		ch, _ := collectDown(cl)
		waitDown(t, ch, 0, 2*time.Second)
		if got := fmt.Sprint(cl.Procs()); got != "[1 2]" {
			t.Errorf("proc %d's world after the verdict = %s, want [1 2]", cl.Proc(), got)
		}
	}

	// Three joins, then the one conviction — nothing before the ship.
	if got := fmt.Sprint(journalKinds(t, journal.String(), 0)); got != "[member_join conn_dead]" {
		t.Errorf("corpse's journal = %s, want [member_join conn_dead]", got)
	}
	if lines := strings.Split(strings.TrimSpace(journal.String()), "\n"); len(lines) != 4 || !strings.Contains(lines[3], `"conn_dead"`) {
		t.Errorf("journal should be three joins then the conviction:\n%s", journal.String())
	}
}
