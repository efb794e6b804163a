package clustertest

// The elasticity side of the harness: RunGrow drives each worker's
// node.Boundary and each spare's node.AwaitAdmission — the grow boundary
// and spare life cycle elasticd runs, with one autopilot controller per
// node and the decision seat at rank 0 of the current communicator.

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/mpi"
)

// MakeState builds a deterministic pseudo-model blob: every byte mixes
// its offset and the total length, so truncation, reordering, or
// cross-stream contamination always moves the CRC.
func MakeState(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*131 + n*31 + i>>8)
	}
	return b
}

// RunGrow executes an elasticity scenario on a cluster built with
// Config.Scale. Every worker runs `rounds` allreduces with a Boundary
// between consecutive ones, streaming a stateBytes MakeState blob to each
// newcomer; onRound returning false kills the worker before that round,
// as in RoundsBody. Every spare waits in AwaitAdmission, checks the state
// byte for byte, and runs the remaining rounds and boundaries like any
// member. Outcomes come back indexed by rank with the spares appended
// after the workers; a spare never admitted is released by Close and
// reported Died.
func (c *Cluster) RunGrow(rounds int, opts mpi.AllreduceOptions, stateBytes int, onRound func(w *Worker, round int) bool) []*Outcome {
	c.T.Helper()
	state := MakeState(stateBytes)
	spareOuts := make(chan *Outcome, len(c.Spares))
	for i, sp := range c.Spares {
		go func() {
			o := sp.enter(rounds, opts, state, onRound)
			o.Rank = len(c.Workers) + i
			if o.Err != nil {
				// Surface immediately: a spare that errors out of a
				// collective leaves the workers blocked, and Run's
				// timeout would otherwise mask the root cause.
				c.T.Logf("clustertest: spare %d: %v", sp.Proc, o.Err)
			}
			spareOuts <- o
		}()
	}
	outs := c.Run(func(w *Worker) *Outcome { return w.rounds(0, rounds, opts, state, onRound) })
	// Every worker is done, so every admitted spare has finished its
	// collectives too; only the ones nobody needed still wait.
	for _, sp := range c.Spares {
		if !sp.admitted.Load() {
			sp.Close()
		}
	}
	deadline := time.After(30 * time.Second)
	for range c.Spares {
		select {
		case o := <-spareOuts:
			outs = append(outs, o)
		case <-deadline:
			c.T.Fatalf("clustertest: spare outcome timed out")
		}
	}
	return outs
}

// enter is a spare's scenario body: wait for admission, verify the
// streamed state, then train from the round after the one it is stamped
// with.
func (sp *Worker) enter(rounds int, opts mpi.AllreduceOptions, want []byte, onRound func(*Worker, int) bool) *Outcome {
	state, step, err := sp.AwaitAdmission()
	switch {
	case err != nil && sp.EP.Closed():
		return &Outcome{Died: true} // killed, or released unneeded
	case err != nil:
		return &Outcome{Err: err}
	case !bytes.Equal(state, want):
		return &Outcome{Err: fmt.Errorf("spare state: %d bytes differ from the %d sent", len(state), len(want))}
	}
	sp.admitted.Store(true)
	return sp.rounds(int(step)+1, rounds, opts, want, onRound)
}
