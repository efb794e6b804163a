// Package failure provides the reconfiguration-event schedules the
// experiments use to emulate volatile resources: kill a specific process
// or node at a given training point, request an upscale, or draw failures
// from an exponential inter-arrival (MTBF) process.
package failure

import (
	"math"
	"math/rand"

	"repro/internal/simnet"
)

// Kind selects the blast radius of an injected failure.
type Kind int

const (
	KillProcess Kind = iota
	KillNode
)

func (k Kind) String() string {
	if k == KillNode {
		return "node"
	}
	return "process"
}

// Type distinguishes event categories.
type Type int

const (
	// Fail kills the victim's process or node.
	Fail Type = iota
	// Grow requests an upscale by Add workers (no failure involved).
	Grow
)

// Event is one scheduled reconfiguration, fired when training reaches the
// given epoch and step.
type Event struct {
	Epoch int
	Step  int
	Type  Type
	Rank  int  // Fail: rank (at firing time) whose process/node is killed
	Kind  Kind // Fail: blast radius
	Add   int  // Grow: workers to add
}

// Schedule is an ordered list of events with a firing cursor. Each worker
// should hold its own Clone so cursors advance independently and
// deterministically.
type Schedule struct {
	Events []Event
	next   int
}

// At builds a single-failure schedule, the common experiment shape.
func At(epoch, step, rank int, kind Kind) *Schedule {
	return &Schedule{Events: []Event{{Epoch: epoch, Step: step, Type: Fail, Rank: rank, Kind: kind}}}
}

// GrowAt builds a single-upscale schedule.
func GrowAt(epoch, step, add int) *Schedule {
	return &Schedule{Events: []Event{{Epoch: epoch, Step: step, Type: Grow, Add: add}}}
}

// None returns an empty schedule.
func None() *Schedule { return &Schedule{} }

// Clone returns an independent schedule with a reset cursor.
func (s *Schedule) Clone() *Schedule {
	if s == nil {
		return &Schedule{}
	}
	return &Schedule{Events: append([]Event(nil), s.Events...)}
}

// Pending returns the next un-fired event matching the given training
// point, or nil. Events fire in order and exactly once per cursor.
func (s *Schedule) Pending(epoch, step int) *Event {
	if s == nil || s.next >= len(s.Events) {
		return nil
	}
	e := &s.Events[s.next]
	if epoch > e.Epoch || (epoch == e.Epoch && step >= e.Step) {
		s.next++
		return e
	}
	return nil
}

// Remaining reports how many events have not fired yet.
func (s *Schedule) Remaining() int {
	if s == nil {
		return 0
	}
	return len(s.Events) - s.next
}

// Fire applies a failure to the cluster, honoring its blast radius. It
// runs on the victim's goroutine; a node failure happens at the victim's
// clock for every process on the node.
func Fire(c *simnet.Cluster, victim simnet.ProcID, kind Kind) {
	if kind == KillNode && c.KillNodeOf(victim) == nil {
		return
	}
	c.Kill(victim)
}

// MTBF draws an exponential failure schedule over a horizon: one event per
// drawn arrival before horizonSteps, each targeting a uniformly random
// rank among `ranks`. stepsPerEpoch converts arrival steps to
// (epoch, step) pairs.
func MTBF(seed int64, meanSteps float64, horizonSteps, stepsPerEpoch, ranks int, kind Kind) *Schedule {
	rng := rand.New(rand.NewSource(seed))
	var events []Event
	at := 0.0
	for {
		at += rng.ExpFloat64() * meanSteps
		if at >= float64(horizonSteps) || math.IsInf(at, 1) {
			break
		}
		step := int(at)
		events = append(events, Event{
			Epoch: step / stepsPerEpoch,
			Step:  step % stepsPerEpoch,
			Type:  Fail,
			Rank:  rng.Intn(ranks),
			Kind:  kind,
		})
	}
	return &Schedule{Events: events}
}
