package chaos

import (
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
)

// killTracker registers kill actions for a set of processes and records
// which ones fired (engine kill actions may run on cascade goroutines).
type killTracker struct {
	mu     sync.Mutex
	killed map[transport.ProcID]bool
}

func trackKills(eng *Engine, procs ...transport.ProcID) *killTracker {
	kt := &killTracker{killed: map[transport.ProcID]bool{}}
	for _, p := range procs {
		p := p
		eng.OnKill(p, func() {
			kt.mu.Lock()
			kt.killed[p] = true
			kt.mu.Unlock()
		})
	}
	return kt
}

func (kt *killTracker) dead(p transport.ProcID) bool {
	kt.mu.Lock()
	defer kt.mu.Unlock()
	return kt.killed[p]
}

// TestKillGroupFellsWholeGroup: one protocol moment kills every process
// of the correlated group — the node-level failure shape — and only
// that group.
func TestKillGroupFellsWholeGroup(t *testing.T) {
	r := Rule{Name: "node0", Proc: AnyProc, Point: transport.PointUlfmRevoked,
		Op: OpKillGroup, Nth: 1, Groups: [][]transport.ProcID{{0, 1, 2}}}
	eng := New(Scenario{Name: "killgroup", Seed: 1, Rules: []Rule{r}})
	kt := trackKills(eng, 0, 1, 2, 3)

	eng.hit(0, transport.PointUlfmRevoked)
	for _, p := range []transport.ProcID{0, 1, 2} {
		if !kt.dead(p) {
			t.Errorf("group member %d not killed", p)
		}
	}
	if kt.dead(3) {
		t.Errorf("proc 3 outside the group was killed")
	}
	// Nth=1: a second hit must not re-fire.
	n := len(eng.Events())
	eng.hit(0, transport.PointUlfmRevoked)
	if len(eng.Events()) != n {
		t.Errorf("killgroup re-fired on second hit")
	}
}

// TestCascadeStagedKills: the cascade fault fells its stages in order
// with the configured inter-stage delay, journals one PointCascadeStage
// event per stage, and Quiesce waits for the last stage.
func TestCascadeStagedKills(t *testing.T) {
	r := Rule{Name: "storm", Proc: AnyProc, Point: transport.PointUlfmShrunk,
		Op: OpCascade, Nth: 1, Delay: 20 * time.Millisecond,
		Groups: [][]transport.ProcID{{1}, {2}, {3}}}
	eng := New(Scenario{Name: "cascade", Seed: 1, Rules: []Rule{r}})
	kt := trackKills(eng, 1, 2, 3)

	start := time.Now()
	eng.hit(0, transport.PointUlfmShrunk)
	eng.Quiesce()
	elapsed := time.Since(start)

	for _, p := range []transport.ProcID{1, 2, 3} {
		if !kt.dead(p) {
			t.Errorf("cascade stage member %d not killed", p)
		}
	}
	// Two inter-stage gaps of 20ms must have elapsed by the time the
	// cascade drains.
	if elapsed < 40*time.Millisecond {
		t.Errorf("cascade drained in %v, want >= 40ms of staged delay", elapsed)
	}
	var stages []int
	for _, ev := range eng.Events() {
		if ev.Point == transport.PointCascadeStage {
			stages = append(stages, ev.Seq)
		}
	}
	if len(stages) != 3 || stages[0] != 1 || stages[1] != 2 || stages[2] != 3 {
		t.Errorf("cascade stage journal %v, want [1 2 3]", stages)
	}
}

// TestSlowInflatesPerMatch: the gray-failure shape delays the Nth
// matched send by Delay·(1 + Inflate·(N−1)), capped at MaxDelay, and
// only for the named process.
func TestSlowInflatesPerMatch(t *testing.T) {
	r := Rule{Name: "gray", Proc: 5, To: AnyProc, Tag: AnyTag,
		Op: OpSlow, Delay: time.Millisecond, Inflate: 1.0, MaxDelay: 3 * time.Millisecond}
	eng := New(Scenario{Name: "slow", Seed: 1, Rules: []Rule{r}})

	want := []time.Duration{
		1 * time.Millisecond, // n=1: base
		2 * time.Millisecond, // n=2: 1·(1+1)
		3 * time.Millisecond, // n=3: 1·(1+2)
		3 * time.Millisecond, // n=4: capped
	}
	for i, w := range want {
		v, _ := eng.onSend(5, 1, 100, 8, true)
		if v.slow != w {
			t.Errorf("match %d: stall %v, want %v", i+1, v.slow, w)
		}
		if v.delay != 0 {
			t.Errorf("match %d: OpSlow set the detached-delivery delay; the stall must be inline to preserve FIFO", i+1)
		}
	}
	// A healthy process is untouched.
	if v, _ := eng.onSend(6, 1, 100, 8, true); v.slow != 0 {
		t.Errorf("proc 6 stalled %v, want 0", v.slow)
	}
	// Control-plane traffic stays immune even on the slow process.
	if v, _ := eng.onSend(5, 1, transport.CtlTagBase, 8, true); v.slow != 0 {
		t.Errorf("control tag stalled %v, want 0", v.slow)
	}
}
