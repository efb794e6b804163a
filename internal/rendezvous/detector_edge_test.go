package rendezvous

import (
	"sync"
	"testing"
	"time"
)

// TestDetectorFlappingSuspectAliveCycles drives a member through repeated
// suspect -> alive edges — the flapping pattern a congested worker
// produces — and checks that every cycle yields exactly one suspicion and
// one recovery, that flapping never escalates to death on its own, and
// that the eventual real death goes through the suspect state and is
// absorbing against late heartbeats.
func TestDetectorFlappingSuspectAliveCycles(t *testing.T) {
	d := NewDetector(1.0, 3.0)
	d.Join(7, 0)

	now := 0.0
	for cycle := 0; cycle < 3; cycle++ {
		// Silence just past the suspicion threshold.
		now += 1.2
		trs := d.Sweep(now)
		if len(trs) != 1 || trs[0].From != StateAlive || trs[0].To != StateSuspect {
			t.Fatalf("cycle %d: sweep transitions = %+v, want one alive->suspect", cycle, trs)
		}
		// A second sweep while already suspect must not re-announce.
		if trs := d.Sweep(now + 0.1); len(trs) != 0 {
			t.Fatalf("cycle %d: repeated sweep re-announced: %+v", cycle, trs)
		}
		// The heartbeat arrives after all: recovery edge.
		now += 0.2
		tr := d.Heartbeat(7, now)
		if tr == nil || tr.From != StateSuspect || tr.To != StateAlive {
			t.Fatalf("cycle %d: heartbeat transition = %+v, want suspect->alive", cycle, tr)
		}
		// Recovered: the next sweep inside the window is quiet.
		if trs := d.Sweep(now + 0.5); len(trs) != 0 {
			t.Fatalf("cycle %d: sweep after recovery fired: %+v", cycle, trs)
		}
	}
	if st, _ := d.State(7); st != StateAlive {
		t.Fatalf("state after flapping = %v, want alive", st)
	}

	// Now the real death: silence through both thresholds, via suspect.
	trs := d.Sweep(now + 1.5)
	if len(trs) != 1 || trs[0].To != StateSuspect {
		t.Fatalf("pre-death sweep = %+v, want suspicion", trs)
	}
	trs = d.Sweep(now + 3.5)
	if len(trs) != 1 || trs[0].From != StateSuspect || trs[0].To != StateDead {
		t.Fatalf("death sweep = %+v, want suspect->dead", trs)
	}

	// Dead is absorbing: a late heartbeat neither transitions nor revives.
	if tr := d.Heartbeat(7, now+3.6); tr != nil {
		t.Fatalf("late heartbeat resurrected the member: %+v", tr)
	}
	if st, _ := d.State(7); st != StateDead {
		t.Fatalf("state after late heartbeat = %v, want dead", st)
	}
	if trs := d.Sweep(now + 10); len(trs) != 0 {
		t.Fatalf("sweep after death re-announced: %+v", trs)
	}
	if alive := d.Alive(); len(alive) != 0 {
		t.Fatalf("dead member still listed alive: %v", alive)
	}
}

// TestDeadPeerRejoinsWithFreshProcID restarts a declared-dead worker at
// its old transport address: the server must hand the reincarnation a
// ProcID never used before — the old identity stays dead, so survivors'
// failure knowledge about it remains forever true.
func TestDeadPeerRejoinsWithFreshProcID(t *testing.T) {
	cfg := Config{
		World:             2,
		HeartbeatInterval: 20 * time.Millisecond,
		SuspectAfter:      80 * time.Millisecond,
		DeadAfter:         200 * time.Millisecond,
	}
	srv, err := ListenAndServe("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatalf("ListenAndServe: %v", err)
	}
	defer srv.Close()

	addrs := []string{"127.0.0.1:9001", "127.0.0.1:9002"}
	cls := make([]*Client, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range cls {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cls[i], errs[i] = Join(srv.Addr(), addrs[i], 10*time.Second)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
	}
	defer func() {
		for _, cl := range cls {
			cl.Abandon()
		}
	}()

	victim, survivor := cls[1], cls[0]
	victimProc := victim.Proc()
	victimAddr := victim.Peers()[victimProc]

	ch, _ := collectDown(survivor)
	victim.Abandon() // kill -9: the socket closes under the hub
	waitDown(t, ch, victimProc, 5*time.Second)

	// The restarted worker comes back at the very same address.
	reborn, err := Join(srv.Addr(), victimAddr, 5*time.Second)
	if err != nil {
		t.Fatalf("rejoin at %s: %v", victimAddr, err)
	}
	defer reborn.Abandon()

	if reborn.Proc() == victimProc {
		t.Fatalf("reincarnation reused dead ProcID %d", victimProc)
	}
	if got := reborn.Peers()[reborn.Proc()]; got != victimAddr {
		t.Fatalf("reincarnation registered at %q, want %q", got, victimAddr)
	}

	// The new identity stays alive (its client heartbeats), and no fresh
	// peerdown is announced for it while it does.
	reborn.Start(nil)
	//lint:ignore sleepytest absence assertion: the window must elapse with NO peerdown for the reborn proc, so there is no condition to poll
	time.Sleep(400 * time.Millisecond)
	select {
	case d := <-ch:
		if d == reborn.Proc() {
			t.Fatalf("freshly rejoined proc %d declared down", d)
		}
		if d != victimProc {
			t.Fatalf("unexpected peerdown for proc %d", d)
		}
	default:
	}
	var seen bool
	for _, p := range reborn.Procs() {
		if p == reborn.Proc() {
			seen = true
		}
	}
	if !seen {
		t.Fatalf("reincarnation %d missing from its own membership %v", reborn.Proc(), reborn.Procs())
	}
}
