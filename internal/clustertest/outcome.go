package clustertest

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/mpi"
	"repro/internal/transport"
	"repro/internal/transport/chaos"
)

// Outcome is what one worker reports back from a scenario body.
type Outcome struct {
	Rank  int
	Died  bool // expected death; sums/procs not checked
	Sums  []float64
	Size  int
	Procs []transport.ProcID // final membership, sorted
	Err   error
}

// Report snapshots a worker's final state into its Outcome.
func Report(w *Worker, sums []float64, err error) *Outcome {
	o := &Outcome{Sums: sums, Err: err}
	if err == nil {
		o.Size = w.R.Size()
		o.Procs = chaos.SortedProcs(w.R.Comm().Procs())
	}
	return o
}

// Run executes body on every worker's own goroutine and collects the
// outcomes, indexed by rank. The deadline scales with world size.
func (c *Cluster) Run(body func(w *Worker) *Outcome) []*Outcome {
	c.T.Helper()
	outs := make([]*Outcome, len(c.Workers))
	results := make(chan *Outcome, len(c.Workers))
	for _, w := range c.Workers {
		go func(w *Worker) {
			o := body(w)
			o.Rank = w.Rank
			results <- o
		}(w)
	}
	// A single shared core is the worst supported case: every survivor's
	// repair round and the whole gossip fabric time-share it, so the
	// budget grows with world size — quadratically, because a repair
	// cannot start before the detector's verdict and DetectorDefaults
	// stretches the protocol period as world² beyond 32 (the suspicion
	// window is 2·log n + 6 of those periods). The agreement inside the
	// repair no longer contributes: it is 2(n−1) messages, not the
	// n(n−1) this deadline was first derived for (world 128 then needed
	// ~6 minutes for one repair on one core). The term stays for the
	// detector; shrinking it is a measurement at world 128, not a guess.
	n := len(c.Workers)
	deadline := time.After(45*time.Second +
		time.Duration(n)*1500*time.Millisecond +
		time.Duration(n*n)*25*time.Second/1024)
	for range c.Workers {
		select {
		case o := <-results:
			outs[o.Rank] = o
		case <-deadline:
			var stuck, errs []string
			for rank, o := range outs {
				switch {
				case o == nil:
					w := c.Workers[rank]
					stuck = append(stuck,
						fmt.Sprintf("%d(comm=%#x size=%d repairs=%d)",
							rank, w.R.Comm().ID(), w.R.Size(), len(w.R.Events())))
				case o.Err != nil:
					errs = append(errs, fmt.Sprintf("rank %d: %v", rank, o.Err))
				}
			}
			c.T.Fatalf("clustertest: scenario timed out; stuck ranks: %s\nfinished-with-error:\n  %s\nfired faults so far:\n%s",
				strings.Join(stuck, " "), strings.Join(errs, "\n  "), c.Eng)
		}
	}
	return outs
}

// RoundsBody is the common worker script: run the given number of
// allreduce rounds, calling onRound before each (rank-specific actions
// — dying, arming rules — live there). onRound returning false means
// the worker dies instead of running that round.
func RoundsBody(algo mpi.AllreduceAlgo, rounds int, onRound func(w *Worker, round int) bool) func(w *Worker) *Outcome {
	return RoundsBodyOpts(mpi.AllreduceOptions{Algo: algo}, rounds, onRound)
}

// RoundsBodyOpts is RoundsBody under explicit data-plane options, so
// scenarios can run their rounds over compressed wire formats.
func RoundsBodyOpts(o mpi.AllreduceOptions, rounds int, onRound func(w *Worker, round int) bool) func(w *Worker) *Outcome {
	return func(w *Worker) *Outcome { return w.rounds(0, rounds, o, nil, onRound) }
}

// rounds is every scenario script: allreduce rounds [from, to), onRound
// before each, and the node's grow Boundary — a no-op without
// Config.Scale — between consecutive ones, with state as the newcomer
// blob. An evicted worker leaves.
func (w *Worker) rounds(from, to int, o mpi.AllreduceOptions, state []byte, onRound func(w *Worker, round int) bool) *Outcome {
	var sums []float64
	fail := func(err error) *Outcome {
		if w.Killed.Load() {
			return &Outcome{Died: true}
		}
		return Report(w, sums, err)
	}
	for round := from; round < to; round++ {
		if onRound != nil && !onRound(w, round) {
			return &Outcome{Died: true}
		}
		s, err := w.AllreduceOpts(o)
		if err != nil {
			return fail(fmt.Errorf("round %d: %w", round, err))
		}
		sums = append(sums, s)
		if round == to-1 {
			break
		}
		evict, err := w.Boundary(round, state)
		if err != nil {
			return fail(fmt.Errorf("boundary %d: %w", round, err))
		}
		if evict {
			w.Leave()
			return &Outcome{Died: true}
		}
	}
	return Report(w, sums, nil)
}

// ExactSum is the bit-exact allreduce result for a membership: every
// member contributes the integer proc+1 at every element, and integer
// sums in float64 are exact under any reduction order.
func ExactSum(procs []transport.ProcID) float64 {
	var s float64
	for _, p := range procs {
		s += float64(p) + 1
	}
	return s
}

// CheckOutcomes asserts the post-repair invariants: every non-victim
// completed without error, every survivor's final membership is exactly
// wantProcs, and the final allreduce value is bit-identical to the
// failure-free result over wantProcs.
func (c *Cluster) CheckOutcomes(outs []*Outcome, wantProcs []transport.ProcID) {
	c.T.Helper()
	want := chaos.SortedProcs(wantProcs)
	wantSum := ExactSum(want)
	survivors := 0
	for _, o := range outs {
		if o.Died {
			continue
		}
		survivors++
		if o.Err != nil {
			c.T.Errorf("rank %d: %v", o.Rank, o.Err)
			continue
		}
		if !sameProcs(o.Procs, want) {
			c.T.Errorf("rank %d: final membership %v, want %v", o.Rank, o.Procs, want)
			continue
		}
		if o.Size != len(want) {
			c.T.Errorf("rank %d: final size %d, want %d", o.Rank, o.Size, len(want))
		}
		if n := len(o.Sums); n > 0 && o.Sums[n-1] != wantSum {
			c.T.Errorf("rank %d: final allreduce = %v, want bit-exact %v", o.Rank, o.Sums[n-1], wantSum)
		}
	}
	if survivors != len(want) {
		c.T.Errorf("%d survivor outcomes, want %d", survivors, len(want))
	}
	c.checkMailboxes(outs)
}

// checkMailboxes asserts what no exit-time leak check can see, because
// Close empties the mailbox first: once the scenario's last collective has
// returned everywhere and each survivor has polled its control plane one
// last time, no agreement message is set aside anywhere — duplicated,
// reordered and late ones were dropped at delivery — and, unless a fault
// fired that strands data frames (see chaos.Engine.StrandsData) or a
// worker was killed, the mailbox itself is empty.
func (c *Cluster) checkMailboxes(outs []*Outcome) {
	c.T.Helper()
	strands := c.Eng.StrandsData()
	all := c.all()
	for _, w := range all {
		strands = strands || w.Killed.Load()
	}
	for _, o := range outs {
		if o == nil || o.Died || o.Err != nil || o.Rank >= len(all) || all[o.Rank].R == nil {
			continue
		}
		w := all[o.Rank]
		p := w.R.Comm().Proc()
		_ = p.Poll()
		if n := p.AgreeBacklog(); n != 0 {
			c.T.Errorf("rank %d: %d agreement messages set aside after the last collective", o.Rank, n)
		}
		if n := w.EP.QueueLen(); n != 0 && !strands {
			c.T.Errorf("rank %d: %d messages parked in the mailbox after the last collective", o.Rank, n)
		}
	}
}

// CheckEveryRound asserts the no-membership-change invariant: every
// round of every worker produced the bit-exact full-world sum (a
// corruption in an early round must not be masked by a clean final
// one).
func (c *Cluster) CheckEveryRound(outs []*Outcome, wantProcs []transport.ProcID) {
	c.T.Helper()
	wantSum := ExactSum(wantProcs)
	for _, o := range outs {
		if o.Died || o.Err != nil {
			continue
		}
		for i, s := range o.Sums {
			if s != wantSum {
				c.T.Errorf("rank %d round %d: allreduce = %v, want bit-exact %v", o.Rank, i, s, wantSum)
			}
		}
	}
}

// VerifyRecovery is the one-call postcondition for quickstart tests:
// every live worker runs one more allreduce, and the results must show
// exactly the given ranks gone — same shrunken membership everywhere,
// bit-exact sum.
func (c *Cluster) VerifyRecovery(deadRanks ...int) {
	c.T.Helper()
	c.CheckOutcomes(c.Run(RoundsBody(mpi.AlgoAuto, 1, nil)), c.ProcsExcept(deadRanks...))
}

func sameProcs(got, want []transport.ProcID) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}
