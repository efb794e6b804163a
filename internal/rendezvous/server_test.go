package rendezvous

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/vtime"
)

// syncBuf is a mutex-guarded journal sink: the server's sweeper goroutine
// writes while the test reads.
type syncBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func gather(t *testing.T, world int, cfg Config) (*Server, []*Client) {
	t.Helper()
	cfg.World = world
	srv, err := ListenAndServe("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatalf("ListenAndServe: %v", err)
	}
	t.Cleanup(func() { srv.Close() })

	cls := make([]*Client, world)
	var wg sync.WaitGroup
	errs := make([]error, world)
	for i := 0; i < world; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cls[i], errs[i] = Join(srv.Addr(), "127.0.0.1:0", 10*time.Second)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
	}
	t.Cleanup(func() {
		for _, cl := range cls {
			cl.Abandon()
		}
	})
	return srv, cls
}

func TestGatherAssignsConsistentWorld(t *testing.T) {
	_, cls := gather(t, 3, Config{})

	seen := map[transport.ProcID]bool{}
	for _, cl := range cls {
		if cl.World() != 3 {
			t.Fatalf("world = %d, want 3", cl.World())
		}
		if seen[cl.Proc()] {
			t.Fatalf("duplicate proc %d", cl.Proc())
		}
		seen[cl.Proc()] = true
		if cl.Rank() != int(cl.Proc()) {
			t.Fatalf("rank %d != proc %d", cl.Rank(), cl.Proc())
		}
		if got := cl.Procs(); len(got) != 3 {
			t.Fatalf("procs = %v", got)
		}
		if len(cl.Peers()) != 3 {
			t.Fatalf("peers = %v", cl.Peers())
		}
	}
	for id := transport.ProcID(0); id < 3; id++ {
		if !seen[id] {
			t.Fatalf("proc %d never assigned (got %v)", id, seen)
		}
	}
}

func collectDown(cl *Client) (<-chan transport.ProcID, func()) {
	ch := make(chan transport.ProcID, 8)
	cl.Start(func(d transport.ProcID) { ch <- d })
	return ch, func() {}
}

func waitDown(t *testing.T, ch <-chan transport.ProcID, want transport.ProcID, within time.Duration) {
	t.Helper()
	select {
	case got := <-ch:
		if got != want {
			t.Fatalf("peerdown for proc %d, want %d", got, want)
		}
	case <-time.After(within):
		t.Fatalf("no peerdown for proc %d within %v", want, within)
	}
}

// journalKinds returns the kinds journaled for proc, in order.
func journalKinds(t *testing.T, journal string, proc transport.ProcID) []string {
	t.Helper()
	var kinds []string
	for _, line := range strings.Split(strings.TrimSpace(journal), "\n") {
		var ev trace.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad journal line %q: %v", line, err)
		}
		if ev.Proc == int(proc) {
			kinds = append(kinds, ev.Kind)
		}
	}
	return kinds
}

// TestHeartbeatTimeoutDeclaresDeath: a member that goes silent with its
// socket open (SIGSTOP, a partition, a lost host) gives the hub nothing
// but the silence, and is timed out the slow way: suspected, then
// declared, each once.
func TestHeartbeatTimeoutDeclaresDeath(t *testing.T) {
	var journal syncBuf
	rec := trace.New(&journal)
	_, cls := gather(t, 3, Config{
		HeartbeatInterval: 20 * time.Millisecond,
		SuspectAfter:      80 * time.Millisecond,
		DeadAfter:         200 * time.Millisecond,
		Trace:             rec,
	})

	chans := make([]<-chan transport.ProcID, len(cls))
	for i, cl := range cls {
		chans[i], _ = collectDown(cl)
	}

	victim := cls[0]
	victimProc := victim.Proc()
	victim.Freeze() // silence: no leave, no close, heartbeats just stop

	for i, cl := range cls {
		if cl == victim {
			continue
		}
		waitDown(t, chans[i], victimProc, 5*time.Second)
	}

	// The journal carries the full lifecycle for the victim, in order, and
	// nothing for anyone else but their joins.
	if got := fmt.Sprint(journalKinds(t, journal.String(), victimProc)); got != "[member_join hb_suspect hb_dead]" {
		t.Fatalf("victim's journal = %s, want [member_join hb_suspect hb_dead]:\n%s", got, journal.String())
	}
	for _, cl := range cls[1:] {
		if got := fmt.Sprint(journalKinds(t, journal.String(), cl.Proc())); got != "[member_join]" {
			t.Fatalf("survivor proc %d's journal = %s, want [member_join]", cl.Proc(), got)
		}
	}
}

func TestCleanLeaveBroadcastsImmediately(t *testing.T) {
	var journal syncBuf
	rec := trace.New(&journal)
	// Long timeouts: if leave were not broadcast eagerly, the waitDown
	// below would time out long before the heartbeat detector fired.
	_, cls := gather(t, 2, Config{
		HeartbeatInterval: 50 * time.Millisecond,
		SuspectAfter:      30 * time.Second,
		DeadAfter:         60 * time.Second,
		Trace:             rec,
	})

	ch, _ := collectDown(cls[1])
	leaver := cls[0].Proc()
	cls[0].Close()
	waitDown(t, ch, leaver, 3*time.Second)
	if !strings.Contains(journal.String(), "member_leave") {
		t.Fatalf("journal missing member_leave:\n%s", journal.String())
	}
}

func TestSuspectRecoversWithoutDeclaration(t *testing.T) {
	var journal syncBuf
	rec := trace.New(&journal)
	_, cls := gather(t, 2, Config{
		HeartbeatInterval: 15 * time.Millisecond,
		SuspectAfter:      60 * time.Millisecond,
		DeadAfter:         5 * time.Second, // effectively never within the test
		Trace:             rec,
	})
	ch, _ := collectDown(cls[1])
	// cls[0] heartbeats, then freezes (socket open, nothing sent) and
	// drifts into suspicion; then a manual heartbeat recovers it.
	cls[0].Start(nil)
	cls[0].Freeze()
	if !vtime.WaitUntil(3*time.Second, func() bool {
		return strings.Contains(journal.String(), "hb_suspect")
	}) {
		t.Fatalf("peer never drifted into suspicion:\n%s", journal.String())
	}
	cls[0].mu.Lock()
	cls[0].enc.Encode(&wireMsg{Op: "hb"})
	cls[0].mu.Unlock()
	if !vtime.WaitUntil(3*time.Second, func() bool {
		return strings.Contains(journal.String(), "hb_alive")
	}) {
		t.Fatalf("manual heartbeat never recovered the suspect:\n%s", journal.String())
	}

	s := journal.String()
	if !strings.Contains(s, "hb_suspect") {
		t.Fatalf("journal missing hb_suspect:\n%s", s)
	}
	if !strings.Contains(s, "hb_alive") {
		t.Fatalf("journal missing hb_alive recovery:\n%s", s)
	}
	if strings.Contains(s, "hb_dead") {
		t.Fatalf("suspect recovery escalated to death:\n%s", s)
	}
	select {
	case d := <-ch:
		t.Fatalf("unexpected peerdown for %d", d)
	default:
	}
}

func TestLateJoinGetsWelcome(t *testing.T) {
	srv, _ := gather(t, 2, Config{HeartbeatInterval: 50 * time.Millisecond})
	late, err := Join(srv.Addr(), "127.0.0.1:0", 5*time.Second)
	if err != nil {
		t.Fatalf("late join: %v", err)
	}
	defer late.Abandon()
	if late.Proc() != 2 {
		t.Fatalf("late joiner proc = %d, want 2", late.Proc())
	}
	if len(late.Peers()) != 3 {
		t.Fatalf("late joiner peers = %v, want 3 entries", late.Peers())
	}
}

// TestLeftIsNotDied: a clean departure and a conviction both remove the
// member, but a client that asks can tell them apart — the leave arrives
// through OnPeerLeft only, the death through OnPeerDown only.
func TestLeftIsNotDied(t *testing.T) {
	_, cls := gather(t, 3, Config{
		HeartbeatInterval: 20 * time.Millisecond,
		SuspectAfter:      80 * time.Millisecond,
		DeadAfter:         200 * time.Millisecond,
	})
	observer, leaver, victim := cls[0], cls[1], cls[2]
	left := make(chan transport.ProcID, 8)
	died := make(chan transport.ProcID, 8)
	observer.StartNotify(Notifications{
		OnPeerDown: func(p transport.ProcID) { died <- p },
		OnPeerLeft: func(p transport.ProcID) { left <- p },
	})
	leaver.Start(nil) // both heartbeat, so only Close and Abandon below remove them
	victim.Start(nil)

	leaver.Close()
	waitDown(t, left, leaver.Proc(), 3*time.Second)
	victim.Abandon()
	waitDown(t, died, victim.Proc(), 5*time.Second)
	select {
	case p := <-left:
		t.Fatalf("proc %d reported as left a second time or in error", p)
	case p := <-died:
		t.Fatalf("proc %d reported as died; the only death was proc %d", p, victim.Proc())
	default:
	}
	if got := observer.Procs(); len(got) != 1 || got[0] != observer.Proc() {
		t.Fatalf("observer's world after a leave and a death = %v, want only itself", got)
	}
}

// TestNoDeltaToGoneConnection: in gossip mode a member whose connection
// dropped without a leave stays a member until a verdict names it (a
// hub-link drop is not terminal there), but deltas are no longer written
// to it — they cannot arrive, and the failed writes were the broken-pipe
// lines at the end of every run.
func TestNoDeltaToGoneConnection(t *testing.T) {
	var logs syncBuf
	srv, cls := gather(t, 4, Config{
		Gossip: true,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(&logs, format+"\n", args...)
		},
	})
	dropped, leaver, rest := cls[0], cls[1], cls[2:]
	chans := make([]<-chan transport.ProcID, len(rest))
	for i, cl := range rest {
		chans[i], _ = collectDown(cl)
	}

	dropped.Abandon()
	if !vtime.WaitUntil(3*time.Second, func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return srv.members[dropped.Proc()].gone
	}) {
		t.Fatal("server never noticed the dropped connection")
	}
	deltas0 := obsDeltas.Value()
	leaver.Close()
	for _, ch := range chans {
		waitDown(t, ch, leaver.Proc(), 3*time.Second)
	}
	if d := obsDeltas.Value() - deltas0; d != uint64(len(rest)) {
		t.Errorf("%d deltas written for one leave, want %d: one per member with a live connection", d, len(rest))
	}
	if s := logs.String(); strings.Contains(s, "failed") {
		t.Errorf("a delta was attempted on a dead connection:\n%s", s)
	}
}
