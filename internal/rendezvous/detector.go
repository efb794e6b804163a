// Package rendezvous provides the membership substrate for multi-process
// runs over the TCP transport: a small server that assigns ranks,
// publishes the peer address map once the expected world has gathered,
// and runs wall-clock heartbeat failure detection whose verdicts feed the
// same ULFM revoke/agree/shrink path the simulator exercises.
//
// A worker whose control connection closes without a leave is declared at
// once: the kernel has already said the process is gone (Server.connGone).
// For the deaths that close no socket, detection is deliberately
// two-staged — alive, then suspect, then dead — so a slow or briefly
// partitioned worker has a window to recover (suspect → alive on the next
// heartbeat) before the declaration becomes irreversible and is broadcast
// to every surviving member.
package rendezvous

import (
	"sort"

	"repro/internal/transport"
)

// State is a member's position in the failure detector's lifecycle.
type State int

const (
	// StateAlive: heartbeats arriving within SuspectAfter.
	StateAlive State = iota
	// StateSuspect: silent past SuspectAfter; recoverable.
	StateSuspect
	// StateDead: silent past DeadAfter; absorbing — a late heartbeat
	// cannot resurrect a declared process (its ProcID is never reused).
	StateDead
)

func (s State) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateSuspect:
		return "suspect"
	case StateDead:
		return "dead"
	default:
		return "unknown"
	}
}

// Transition records one detector state change during a sweep or a
// suspect recovery.
type Transition struct {
	Proc transport.ProcID
	From State
	To   State
	At   float64 // detector time (seconds) of the transition
}

// Detector is the heartbeat state machine, pure and single-threaded so it
// can be driven by tests with synthetic time and by the server with
// wall-clock seconds. The caller supplies monotonically non-decreasing
// `now` values.
type Detector struct {
	suspectAfter float64
	deadAfter    float64
	last         map[transport.ProcID]float64
	state        map[transport.ProcID]State
}

// NewDetector builds a detector: a member is suspected after
// suspectAfter seconds of silence and declared dead after deadAfter.
// deadAfter is clamped to at least suspectAfter.
func NewDetector(suspectAfter, deadAfter float64) *Detector {
	if deadAfter < suspectAfter {
		deadAfter = suspectAfter
	}
	return &Detector{
		suspectAfter: suspectAfter,
		deadAfter:    deadAfter,
		last:         make(map[transport.ProcID]float64),
		state:        make(map[transport.ProcID]State),
	}
}

// Join registers a member, alive as of now.
func (d *Detector) Join(id transport.ProcID, now float64) {
	d.last[id] = now
	d.state[id] = StateAlive
}

// Leave removes a member (clean departure; no declaration is made).
func (d *Detector) Leave(id transport.ProcID) {
	delete(d.last, id)
	delete(d.state, id)
}

// Heartbeat records life from a member. A suspect member recovers to
// alive and the recovery transition is returned; heartbeats from unknown
// or already-declared-dead members are ignored (nil).
func (d *Detector) Heartbeat(id transport.ProcID, now float64) *Transition {
	st, ok := d.state[id]
	if !ok || st == StateDead {
		return nil
	}
	d.last[id] = now
	if st == StateSuspect {
		d.state[id] = StateAlive
		return &Transition{Proc: id, From: StateSuspect, To: StateAlive, At: now}
	}
	return nil
}

// Sweep advances every member's state against the current time and
// returns the transitions, ordered by ProcID. A member that slept through
// both thresholds goes straight from alive to dead in one sweep.
func (d *Detector) Sweep(now float64) []Transition {
	ids := make([]transport.ProcID, 0, len(d.state))
	for id := range d.state {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	var out []Transition
	for _, id := range ids {
		st := d.state[id]
		if st == StateDead {
			continue
		}
		silence := now - d.last[id]
		switch {
		case silence >= d.deadAfter:
			out = append(out, Transition{Proc: id, From: st, To: StateDead, At: now})
			d.state[id] = StateDead
		case silence >= d.suspectAfter && st == StateAlive:
			out = append(out, Transition{Proc: id, From: StateAlive, To: StateSuspect, At: now})
			d.state[id] = StateSuspect
		}
	}
	return out
}

// State reports a member's current state.
func (d *Detector) State(id transport.ProcID) (State, bool) {
	st, ok := d.state[id]
	return st, ok
}

// LastSeen reports the detector time of a member's most recent sign of
// life (join or heartbeat). Used to meter heartbeat gaps.
func (d *Detector) LastSeen(id transport.ProcID) (float64, bool) {
	t, ok := d.last[id]
	return t, ok
}

// Alive returns the members not declared dead, sorted.
func (d *Detector) Alive() []transport.ProcID {
	var out []transport.ProcID
	for id, st := range d.state {
		if st != StateDead {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
