// Package ulfm packages the paper's resilient collective operations as a
// reusable library: a ResilientComm wraps an mpi.Comm and transparently
// applies the ULFM recovery pipeline — revoke, acknowledge, agree, shrink,
// optional node-drop — to any collective that fails, then retries it on
// the repaired communicator with the caller's original buffers.
//
// This is the abstraction Section 3.1 describes ("resilient collective
// operations serve as the primary method to handle any changes in worker
// size during training"): callers keep issuing collectives; membership
// changes surface only through the OnReconfigure callback. The training
// integration in internal/core inlines the same pipeline because it also
// coordinates replacement spawning and epoch-boundary merges; this package
// is the standalone form for other applications (iterative solvers,
// analytics) that just want collectives that survive failures.
package ulfm

import (
	"errors"
	"fmt"

	"repro/internal/failure"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/vtime"
)

// ErrDropped is returned when the node-drop policy removes the calling
// (alive) process from the communicator: the caller must stop using it.
var ErrDropped = errors.New("ulfm: this process was dropped by the node-drop policy")

// Advisor is the recovery-policy hook at the revoke→repair boundary
// (implemented by policy.Engine; the interface keeps this package free
// of the engine's obs/trace dependencies). Rank 0 of the shrunken
// communicator calls Advise and replicates the opaque code to the other
// members, who apply it through Adopt — the strategy is therefore
// uniform across ranks by construction. After the retried collective
// succeeds, the deciding rank reports the measured recovery cost
// through Realize so the engine can refine its cost model.
//
// The advice exchange is itself a collective over the shrunken
// communicator, so an advisor must be installed on either every member
// or none: a mixed membership would diverge at the exchange.
type Advisor interface {
	// Advise classifies the failure and picks a strategy at the deciding
	// rank. survivors is the post-shrink membership, dead the processes
	// the shrink removed. The returned code is replicated verbatim.
	Advise(now float64, survivors, dead []simnet.ProcID) (dropNode, rollback bool, code int64)
	// Adopt applies a replicated code at a non-deciding rank. Unknown
	// codes must degrade to (false, false) — plain shrink — everywhere.
	Adopt(now float64, survivors, dead []simnet.ProcID, code int64) (dropNode, rollback bool)
	// Realize reports the realized recovery seconds (repair pipeline +
	// retried collective) of the decision identified by code.
	Realize(now float64, code int64, realizedSeconds float64)
}

// Policy configures recovery behavior.
type Policy struct {
	// Drop selects the blast radius applied on top of the failed
	// processes: KillProcess removes only the dead; KillNode also removes
	// their nodes' survivors (the paper's runtime flag).
	Drop failure.Kind
	// MaxRetries bounds how many consecutive repairs a single operation
	// may attempt (each retry handles one additional failure event).
	MaxRetries int
	// OnReconfigure, if set, is called after every successful repair with
	// the new communicator and the cost breakdown of the recovery.
	OnReconfigure func(newComm *mpi.Comm, bd *metrics.Breakdown)
	// Advisor, if set, selects the recovery strategy per failure inside
	// the repair pipeline (overriding the static Drop for that repair).
	// It costs one extra small broadcast + agreement per repair — the
	// same uniformity price the retry loop already pays per operation.
	Advisor Advisor
}

// DefaultPolicy drops processes only and tolerates up to 8 failures per
// operation.
func DefaultPolicy() Policy {
	return Policy{Drop: failure.KillProcess, MaxRetries: 8}
}

// pendingPolicy tracks an adopted policy decision across the repair(s)
// and the retried collective, so the realized cost reported to the
// advisor covers the whole recovery (cascades accumulate every repair
// into the final decision's realization).
type pendingPolicy struct {
	code     int64
	decided  bool // this member ran Advise (it owns the Realize)
	realized float64
}

// ResilientComm is a self-repairing communicator.
type ResilientComm struct {
	comm       *mpi.Comm
	cluster    *simnet.Cluster
	policy     Policy
	events     []*metrics.Breakdown
	pendingPol *pendingPolicy
	rollback   bool // a rollback advice is armed (TakeRollback consumes)
	// kept is the buffer AllreduceOpts remembers its caller's contribution
	// in on the bandwidth path (a []T of the last element type used), kept
	// across operations and regrown only when a longer tensor arrives.
	kept any
}

// New wraps a communicator. The cluster handle is needed to resolve
// process→node placement for the node-drop policy.
func New(c *mpi.Comm, cluster *simnet.Cluster, policy Policy) *ResilientComm {
	if policy.MaxRetries <= 0 {
		policy.MaxRetries = 8
	}
	return &ResilientComm{comm: c, cluster: cluster, policy: policy}
}

// Comm returns the current underlying communicator (it changes across
// repairs).
func (r *ResilientComm) Comm() *mpi.Comm { return r.comm }

// Rank and Size reflect the current communicator.
func (r *ResilientComm) Rank() int { return r.comm.Rank() }
func (r *ResilientComm) Size() int { return r.comm.Size() }

// Events returns the recovery breakdowns recorded so far (one per repair).
func (r *ResilientComm) Events() []*metrics.Breakdown {
	return append([]*metrics.Breakdown(nil), r.events...)
}

// Allreduce is a resilient elementwise sum-reduction: on failure the
// communicator is repaired and the operation retried with the caller's
// original contribution, so survivors obtain the reduction over the
// surviving contributions — the paper's forward recovery.
func Allreduce[T mpi.Number](r *ResilientComm, data []T, op mpi.Op) error {
	return AllreduceWith(r, data, op, mpi.AlgoAuto)
}

// AllreduceWith is Allreduce with an explicit schedule selection (see
// mpi.AllreduceAlgo); every retry after a repair reuses the same
// algorithm over the shrunken world.
func AllreduceWith[T mpi.Number](r *ResilientComm, data []T, op mpi.Op, algo mpi.AllreduceAlgo) error {
	return AllreduceOpts(r, data, op, mpi.AllreduceOptions{Algo: algo})
}

// AllreduceOpts is Allreduce under explicit data-plane options (schedule,
// pipeline chunks, wire codec).
//
// On the latency path — where the options leave mpi.AllreduceOpts to its
// static tree (mpi.AgreedPath) — the operation is one agreement that
// carries the reduction (mpi.AllreduceAgreed): its outcome is already
// uniform, so no separate agreement follows, and data is written only
// with an agreed result, so nothing needs restoring before a retry.
//
// On the bandwidth path each attempt is the plain collective sealed by an
// agreement. Each retry restores the caller's original contribution and
// re-plans against the repaired communicator by the same pure function
// (mpi.PlanAllreduce of the tensor size and the new world size), so a
// size-derived chunk count follows the shrink on every survivor alike.
// The contribution is remembered in a buffer the ResilientComm keeps, so the
// failure-free path costs one copy and no allocation.
func AllreduceOpts[T mpi.Number](r *ResilientComm, data []T, op mpi.Op, o mpi.AllreduceOptions) error {
	if mpi.AgreedPath(r.comm, data, o) {
		return r.attempts(func() (bool, error) {
			return mpi.AllreduceAgreed(r.comm, data, op)
		}, false)
	}
	orig, _ := r.kept.([]T)
	if cap(orig) < len(data) {
		orig = make([]T, len(data))
		r.kept = orig
	}
	orig = orig[:len(data)]
	copy(orig, data)
	first := true
	return r.retry(func() error {
		if !first {
			copy(data, orig) // the aborted attempt left partial sums behind
		}
		first = false
		return mpi.AllreduceOpts(r.comm, data, op, o)
	})
}

// AllreduceVirtual is the cost-model variant of Allreduce.
func AllreduceVirtual(r *ResilientComm, bytes int64) error {
	return r.retry(func() error {
		return mpi.AllreduceVirtual(r.comm, bytes)
	})
}

// Bcast resiliently broadcasts from the CURRENT rank `root`. If the root
// itself fails, the operation cannot be completed and the root's failure
// is reported to the caller after the repair (callers pick a new root).
func Bcast[T any](r *ResilientComm, data []T, root int) error {
	rootProc := r.comm.ProcOf(root)
	return r.retry(func() error {
		nr := r.rankOfProc(rootProc)
		if nr < 0 {
			return fmt.Errorf("ulfm: bcast root (proc %d) failed and was removed", rootProc)
		}
		return mpi.Bcast(r.comm, data, nr)
	})
}

// Barrier is a resilient barrier over the surviving members.
func Barrier(r *ResilientComm) error {
	return r.retry(func() error {
		return mpi.Barrier(r.comm)
	})
}

// Allgatherv resiliently gathers variable-length blocks. On a repair the
// caller's counts no longer match the membership, so the operation
// reports the repaired communicator through ErrReconfigured-style error
// (callers recompute counts); use Allgather on fixed-size blocks for
// transparent retries.
func Allgather[T any](r *ResilientComm, send []T, recvOf func(size int) []T) ([]T, error) {
	var out []T
	err := r.retry(func() error {
		out = recvOf(r.comm.Size())
		return mpi.Allgather(r.comm, send, out)
	})
	return out, err
}

// retry makes op a *uniform* resilient collective: after the raw
// operation, the members run a fault-tolerant agreement on its success.
// A failed collective can complete at some ranks while aborting at others
// (e.g. a broadcast root finishes its sends before the fault surfaces
// downstream); without the agreement, the completed ranks would move on
// and strand the failed ranks' recovery. With it, every member learns
// uniformly whether anyone failed, and all repair and retry in lockstep —
// the trade-off (one agreement per operation) is the documented cost of
// ULFM's uniform collectives. The small allreduce avoids it by being the
// agreement (AllreduceOpts).
func (r *ResilientComm) retry(op func() error) error {
	return r.attempts(func() (bool, error) {
		err := op()
		return err == nil, err
	}, true)
}

// attempts is the repair-and-retry loop. op reports whether the attempt
// succeeded and, if it failed here, why. With seal set that outcome is
// local, and the members agree on it after every attempt; an operation
// whose outcome is already agreed (mpi.AllreduceAgreed) passes false.
func (r *ResilientComm) attempts(op func() (bool, error), seal bool) error {
	for attempt := 0; ; attempt++ {
		var sw *vtime.Stopwatch
		if attempt > 0 {
			// Re-executions after a repair are the paper's fourth recovery
			// phase; first attempts are ordinary collectives and untimed.
			sw = vtime.NewStopwatch(r.comm.Proc().Endpoint().VClock())
		}
		ok, err := op()
		var retrySec float64
		if sw != nil {
			retrySec = sw.Lap()
			observePhase(obsPhaseRetry, retrySec)
		}
		if err != nil && !mpi.IsFault(err) {
			return err
		}
		if seal {
			flag := uint32(0)
			if ok {
				flag = 1
			}
			r.comm.FailureAck()
			agreed, aerr := r.comm.Agree(flag)
			if aerr != nil && !mpi.IsProcFailed(aerr) {
				return aerr
			}
			ok = agreed == 1 && aerr == nil
		}
		if ok {
			r.realizePolicy(retrySec)
			return nil // success everywhere, membership intact
		}
		if attempt >= r.policy.MaxRetries {
			if err == nil {
				err = fmt.Errorf("membership changed")
			}
			return fmt.Errorf("ulfm: giving up after %d repairs: %w", attempt, err)
		}
		if rerr := r.repair(); rerr != nil {
			return rerr
		}
	}
}

// repair runs the ULFM pipeline and applies the drop policy, mirroring
// each phase's stopwatch lap into the live recovery metrics so the
// journal breakdown and /metrics always agree.
func (r *ResilientComm) repair() error {
	err := r.repairPipeline()
	if err != nil {
		obsRepairFailures.Inc()
	} else {
		obsRecoveries.Inc()
	}
	return err
}

func (r *ResilientComm) repairPipeline() error {
	bd := metrics.NewBreakdown()
	sw := vtime.NewStopwatch(r.comm.Proc().Endpoint().VClock())

	ep := r.comm.Proc().Endpoint()

	r.comm.Revoke()
	lap := sw.Lap()
	bd.Add(metrics.PhaseRevoke, lap)
	observePhase(obsPhaseRevoke, lap)
	transport.Hit(ep.ID(), transport.PointUlfmRevoked)

	r.comm.FailureAck()
	if _, err := r.comm.Agree(1); err != nil && !mpi.IsProcFailed(err) {
		return err
	}
	lap = sw.Lap()
	bd.Add(metrics.PhaseAgree, lap)
	observePhase(obsPhaseAgree, lap)
	transport.Hit(ep.ID(), transport.PointUlfmAgreed)

	shrunk, err := r.comm.Shrink()
	if err != nil {
		return err
	}
	shrinkSec := sw.Lap()
	bd.Add(metrics.PhaseShrink, shrinkSec)
	transport.Hit(ep.ID(), transport.PointUlfmShrunk)

	dead := missingFrom(r.comm.Procs(), shrunk.Procs())
	dropNode := r.policy.Drop == failure.KillNode

	if r.policy.Advisor != nil {
		// Rank 0 of the shrunken world decides; the opaque code rides a
		// broadcast and an agreement seals it, so either every member
		// applies the same strategy or (if a new fault interleaves) every
		// member skips the advice uniformly and falls back to the static
		// drop policy — the next operation's agreement repairs the new
		// corpse and the advisor gets another look.
		code := []int64{0}
		var advDrop, advRollback, decided bool
		if shrunk.Rank() == 0 {
			advDrop, advRollback, code[0] = r.policy.Advisor.Advise(ep.VClock().Now(), shrunk.Procs(), dead)
			decided = true
		}
		berr := mpi.Bcast(shrunk, code, 0)
		if berr != nil && !mpi.IsFault(berr) {
			return berr
		}
		okFlag := uint32(1)
		if berr != nil {
			okFlag = 0
		}
		shrunk.FailureAck()
		agreed, aerr := shrunk.Agree(okFlag)
		if aerr != nil && !mpi.IsProcFailed(aerr) {
			return aerr
		}
		if aerr == nil && agreed == 1 && code[0] != 0 {
			if !decided {
				advDrop, advRollback = r.policy.Advisor.Adopt(ep.VClock().Now(), shrunk.Procs(), dead, code[0])
			}
			dropNode = advDrop
			if advRollback {
				r.rollback = true
			}
			carried := 0.0
			if r.pendingPol != nil {
				carried = r.pendingPol.realized // cascade: fold earlier repairs in
			}
			r.pendingPol = &pendingPolicy{code: code[0], decided: decided, realized: carried}
		}
		lap = sw.Lap()
		bd.Add(metrics.PhasePolicy, lap)
		observePhase(obsPhasePolicy, lap)
	}

	if dropNode && r.cluster != nil {
		deadNodes := map[simnet.NodeID]bool{}
		for _, d := range dead {
			if n, nerr := r.cluster.NodeOf(d); nerr == nil {
				deadNodes[n] = true
			}
		}
		var keep []simnet.ProcID
		for _, pr := range shrunk.Procs() {
			if n, nerr := r.cluster.NodeOf(pr); nerr == nil && !deadNodes[n] {
				keep = append(keep, pr)
			}
		}
		sub, serr := shrunk.Subset(keep)
		if serr != nil {
			return serr
		}
		lap = sw.Lap()
		bd.Add(metrics.PhaseShrink, lap)
		shrinkSec += lap
		if sub == nil {
			observePhase(obsPhaseShrink, shrinkSec)
			r.events = append(r.events, bd)
			return ErrDropped
		}
		shrunk = sub
	}
	observePhase(obsPhaseShrink, shrinkSec)

	if r.pendingPol != nil {
		r.pendingPol.realized += bd.Total()
	}
	r.comm = shrunk
	r.events = append(r.events, bd)
	if r.policy.OnReconfigure != nil {
		r.policy.OnReconfigure(shrunk, bd)
	}
	return nil
}

// realizePolicy closes the loop on an adopted policy decision once the
// retried collective has succeeded: the member that ran Advise reports
// the accumulated recovery seconds (every repair's breakdown plus the
// retry) back to the advisor's cost model.
func (r *ResilientComm) realizePolicy(retrySec float64) {
	pp := r.pendingPol
	if pp == nil {
		return
	}
	r.pendingPol = nil
	if !pp.decided || r.policy.Advisor == nil {
		return
	}
	r.policy.Advisor.Realize(r.comm.Proc().Endpoint().VClock().Now(), pp.code, pp.realized+retrySec)
}

// TakeRollback consumes the rollback advice armed by the last repair:
// true means the policy engine chose checkpoint rollback, and the
// caller should restore its latest snapshot before continuing (the
// repaired collective's result is still valid; only the training
// position rewinds). The flag is armed uniformly at every member of the
// repaired communicator, so all rewind together.
func (r *ResilientComm) TakeRollback() bool {
	rb := r.rollback
	r.rollback = false
	return rb
}

func (r *ResilientComm) rankOfProc(p simnet.ProcID) int {
	for i, pr := range r.comm.Procs() {
		if pr == p {
			return i
		}
	}
	return -1
}

func missingFrom(old, new []simnet.ProcID) []simnet.ProcID {
	in := make(map[simnet.ProcID]bool, len(new))
	for _, p := range new {
		in[p] = true
	}
	var out []simnet.ProcID
	for _, p := range old {
		if !in[p] {
			out = append(out, p)
		}
	}
	return out
}
