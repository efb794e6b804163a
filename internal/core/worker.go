package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/failure"
	"repro/internal/horovod"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/nccl"
	"repro/internal/simnet"
	"repro/internal/tensor"
	"repro/internal/train"
	"repro/internal/vtime"
)

// debugTrace enables recovery-path tracing in tests.
var debugTrace = false

// runWorker is one worker's lifecycle. Victims and voluntarily dropped
// workers (node-drop policy) return nil.
func (j *Job) runWorker(ep *simnet.Endpoint, worldProcs []simnet.ProcID, isNew bool) error {
	defer j.gate.Leave(ep.ID())
	err := j.workerLoop(ep, worldProcs, isNew)
	if errors.Is(err, simnet.ErrDead) || ep.Closed() {
		return nil
	}
	return err
}

func (j *Job) workerLoop(ep *simnet.Endpoint, worldProcs []simnet.ProcID, isNew bool) error {
	cfg := j.cfg
	sched := cfg.Schedule.Clone()
	p := mpi.Attach(ep)
	state, err := train.NewState(cfg.Train)
	if err != nil {
		return err
	}

	var comm *mpi.Comm
	var w *horovod.Worker
	mkWorker := func(rec *metrics.Breakdown) {
		hv := cfg.Horovod
		if cfg.UseGPU {
			sw := vtime.NewStopwatch(&ep.Clock)
			hv.GPU = nccl.Init(&ep.Clock, cfg.NCCL, comm.Size())
			if rec != nil {
				rec.Add(metrics.PhaseGPUReinit, sw.Lap())
			}
		}
		w = horovod.NewWorker(horovod.NewMPIBackend(comm), hv)
	}

	if isNew {
		// Software init happens while the survivors keep training — the
		// newcomer is admitted at the next epoch boundary.
		bd := metrics.NewBreakdown()
		ep.Compute(cfg.FrameworkInit)
		bd.Add(metrics.PhaseNewWorkerInit, cfg.FrameworkInit+j.cluster.Config().SpawnDelay)
		sw := vtime.NewStopwatch(&ep.Clock)
		comm, err = mpi.Join(p)
		if err != nil {
			return err
		}
		bd.Add(metrics.PhaseMerge, sw.Lap())
		mkWorker(bd)
		sw.Restart()
		if err := j.syncState(w, state); err != nil {
			return err
		}
		bd.Add(metrics.PhaseStateSync, sw.Lap())
		j.reportRecovery(j.seqOf(ep.ID()), bd, true)
		for sched.Pending(state.Epoch, state.Step) != nil {
			// stale events from before the join point
		}
		state.LRPol.Resize(comm.Size())
	} else {
		comm, err = mpi.World(p, worldProcs)
		if err != nil {
			return err
		}
		mkWorker(nil)
	}

	// Failure events address victims by their rank in the ORIGINAL world:
	// ranks are renumbered by shrinks, and a worker slightly behind the
	// victim re-traverses the event's (epoch, step) after recovery — it
	// must not mistake itself for the victim under its new rank.
	origRank := -1
	for i, pr := range worldProcs {
		if pr == ep.ID() {
			origRank = i
		}
	}

	// One-step undo snapshots: an interrupted collective can leave
	// survivors skewed by at most one applied step; the two most recent
	// pre-exchange snapshots are enough to reconcile.
	undo := make(map[int64]tensor.Vector)
	var undoOrder []int64
	snapKey := func(e, s int) int64 { return int64(e)*1_000_000 + int64(s) }
	var gradsBackup []tensor.Vector
	gradsKey := int64(-1) // snapKey the current gradsBackup corresponds to
	// pendingReclaim maps a target epoch to the samples reclaimed from
	// workers that failed in the previous epoch. Keyed (not consumed) so
	// that a rank rewound across the epoch boundary re-applies the same
	// carryover on re-entry — a cleared list would diverge step counts.
	pendingReclaim := make(map[int][]int)

	for state.Epoch < cfg.Train.Epochs {
		// Epoch-boundary merge of pending newcomers (Same/Up scenarios):
		// the paper's forward recovery admits them at epoch i+1 with the
		// survivors' state. A worker that IS one of the pending newcomers
		// skips this: it was just merged by the survivors' Grow.
		if seq, joiners := j.joinersFor(state.Epoch); len(joiners) > 0 && !containsProc(joiners, ep.ID()) {
			bd := metrics.NewBreakdown()
			sw := vtime.NewStopwatch(&ep.Clock)
			grown, gerr := comm.Grow(joiners)
			if gerr != nil {
				return gerr
			}
			comm = grown
			bd.Add(metrics.PhaseMerge, sw.Lap())
			mkWorker(bd)
			sw.Restart()
			if err := j.syncState(w, state); err != nil {
				return err
			}
			bd.Add(metrics.PhaseStateSync, sw.Lap())
			state.LRPol.Resize(comm.Size())
			j.reportRecovery(seq, bd, false)
		}
		j.clearPending(state.Epoch)

		if state.Step == 0 {
			// Reclaimed samples from the previous epoch's failures are
			// trained this epoch; entries too old to re-enter are dropped.
			state.SetCarryover(pendingReclaim[state.Epoch])
			for e := range pendingReclaim {
				if e < state.Epoch-1 {
					delete(pendingReclaim, e)
				}
			}
		}

		steps := state.StepsPerEpoch(comm.Size())
		if debugTrace {
			fmt.Printf("TRACE proc %d: epoch %d top steps=%d size=%d step=%d comm=%x ops=%d\n", ep.ID(), state.Epoch, steps, comm.Size(), state.Step, comm.ID(), comm.OpCount())
		}
		loopEpoch := state.Epoch
		var epochLoss float64
		lossBatches := 0
		for state.Step < steps && state.Epoch == loopEpoch {
			rank, size := comm.Rank(), comm.Size()
			j.gate.Reach(ep.ID(), state.Epoch, state.Step)
			if ev := sched.Pending(state.Epoch, state.Step); ev != nil {
				switch ev.Type {
				case failure.Grow:
					// Scenario III: resources became available. Spawn them
					// now; training continues uninterrupted and they merge
					// at the next epoch boundary.
					seq := j.claimEvent(fmt.Sprintf("grow/%d/%d", ev.Epoch, ev.Step), "upscale")
					j.ensureSpawn(seq, ev.Add, ep.Clock.Now())
				case failure.Fail:
					if origRank >= 0 && ev.Rank == origRank {
						j.gate.Await(j.cluster, ep.ID(), comm.Procs(), state.Epoch, state.Step)
						failure.Fire(j.cluster, ep.ID(), ev.Kind)
						return nil
					}
				}
			}
			stepSW := vtime.NewStopwatch(&ep.Clock)
			k := snapKey(state.Epoch, state.Step)
			// Refresh the pre-exchange snapshot unconditionally: after a
			// rewind the step is re-traversed with a different state, and
			// a stale snapshot (or a stale position in the eviction order)
			// would corrupt the next rewind.
			undo[k] = state.Flat()
			for i, kk := range undoOrder {
				if kk == k {
					undoOrder = append(undoOrder[:i], undoOrder[i+1:]...)
					break
				}
			}
			undoOrder = append(undoOrder, k)
			if len(undoOrder) > 2 {
				delete(undo, undoOrder[0])
				undoOrder = undoOrder[1:]
			}
			loss := state.ComputeGrads(rank, size)
			ep.Compute(state.StepTime())
			if cfg.Train.Mode == train.Real {
				gradsBackup = cloneGrads(state.Grads())
			}
			gradsKey = k
			xerr := j.exchange(w, state)
			if xerr != nil {
				if errors.Is(xerr, simnet.ErrDead) {
					return xerr
				}
				if !mpi.IsFault(xerr) {
					return xerr
				}
				// Recovery loop: each iteration handles one failure event;
				// additional failures during the repair or the retried
				// exchange run the pipeline again (bounded so a failure
				// storm cannot spin forever).
				//
				// The exits of each stage are made UNIFORM with agreements
				// (which are stream-independent and work on damaged
				// communicators): a collective can complete at some ranks
				// while failing at others, and without the agreements the
				// completed ranks would move on — and later shrink to a
				// communicator the stragglers never learn about.
				detect := stepSW.Lap() - state.StepTime()
				kCur := k
				for attempt := 0; ; attempt++ {
					if attempt > 32 {
						return fmt.Errorf("core: recovery did not converge after %d repairs: %w", attempt, xerr)
					}
					newComm, bd, seq, dropped, rerr := j.recover(ep, comm, detect)
					detect = 0 // only the first detection is timeout-bound
					if rerr != nil {
						return rerr
					}
					if dropped {
						// Node-drop policy removed this (alive) worker.
						j.reportRecovery(seq, bd, false)
						return nil
					}
					lost := comm.Size() - newComm.Size()
					oldProcs := comm.Procs()
					comm = newComm
					mkWorker(bd)

					// Reconcile the <=1-step skew: agree on the earliest
					// interrupted step, rewind any rank that got ahead.
					// The Min-allreduce's own completion is agreed upon.
					sw := vtime.NewStopwatch(&ep.Clock)
					resume := []int64{kCur}
					stageOK := uint32(1)
					if aerr := mpi.Allreduce(comm, resume, mpi.OpMin); aerr != nil {
						if !mpi.IsFault(aerr) {
							return aerr
						}
						stageOK = 0
					}
					// The exit decision below must use ONLY the agreed value:
					// Agree's value is uniform across survivors, but its
					// error (an unacked-failure report) is rank-local — a
					// brand-new failure can be known at some ranks and not
					// others, and exits keyed on it would diverge. A fresh
					// failure surfaces uniformly at the next collective.
					comm.FailureAck()
					if debugTrace {
						fmt.Printf("TRACE proc %d: attempt %d commID=%x stage min kCur=%d resume=%d stageOK=%d\n",
							ep.ID(), attempt, comm.ID(), kCur, resume[0], stageOK)
					}
					if agreed, agErr := comm.Agree(stageOK); agreed != 1 {
						if agErr != nil && !mpi.IsProcFailed(agErr) {
							return agErr
						}
						j.reportRecovery(seq, bd, false)
						continue // not uniform; repair again
					} else if agErr != nil && !mpi.IsProcFailed(agErr) {
						return agErr
					}
					// Reclaim the failed workers' unvisited samples:
					// survivors compute the identical list from the agreed
					// membership difference and resume point, and train it
					// next epoch.
					if cfg.Train.ReclaimLostSamples && cfg.Train.Mode == train.Real {
						resumeEpoch := int(resume[0] / 1_000_000)
						resumeStep := int(resume[0] % 1_000_000)
						for _, dp := range diffProcs(oldProcs, comm.Procs()) {
							for oldRank, pr := range oldProcs {
								if pr == dp {
									pendingReclaim[resumeEpoch+1] = append(pendingReclaim[resumeEpoch+1],
										state.UnvisitedAfter(oldRank, len(oldProcs), resumeStep)...)
								}
							}
						}
					}
					if cfg.Scenario == ScenarioSame && lost > 0 {
						j.ensureSpawn(seq, lost, ep.Clock.Now())
					}
					if resume[0] < kCur {
						// This rank got ahead of the agreed resume point:
						// rewind one step from the pre-exchange snapshot.
						if snap, ok := undo[resume[0]]; ok {
							if serr := state.SetFlat(snap); serr != nil {
								return serr
							}
						}
						// The carryover is not part of the snapshot (it is
						// derived state); re-install the restored epoch's
						// list or the rank's shard sizes diverge.
						state.SetCarryover(pendingReclaim[state.Epoch])
						kCur = resume[0]
					}
					// Resize AFTER any snapshot restore: the snapshot
					// carries the pre-failure LR policy, and the policy
					// must end identical at rewound and retrying ranks.
					state.LRPol.Resize(comm.Size())

					// Forward recovery: every survivor participates in the
					// retried exchange at the agreed resume step. Ranks
					// that were already there contribute the gradients
					// they still hold (no recomputation); rewound ranks
					// recompute their resume-step minibatch first.
					retryOK := uint32(1)
					if gradsKey != kCur {
						loss = state.ComputeGrads(comm.Rank(), comm.Size())
						ep.Compute(state.StepTime())
						if cfg.Train.Mode == train.Real {
							gradsBackup = cloneGrads(state.Grads())
						}
						gradsKey = kCur
					} else if cfg.Train.Mode == train.Real {
						restoreGrads(state.Grads(), gradsBackup)
					}
					if retryErr := j.exchange(w, state); retryErr != nil {
						if !mpi.IsFault(retryErr) {
							return fmt.Errorf("core: retry after shrink failed: %w", retryErr)
						}
						retryOK = 0
					}
					comm.FailureAck()
					agreed, agErr := comm.Agree(retryOK)
					if debugTrace {
						fmt.Printf("TRACE proc %d: attempt %d commID=%x kCur=%d resume=%d retryOK=%d agreed=%d agErr=%v\n",
							ep.ID(), attempt, comm.ID(), kCur, resume[0], retryOK, agreed, agErr)
					}
					if agErr != nil && !mpi.IsProcFailed(agErr) {
						return agErr
					}
					bd.Add(metrics.PhaseRetry, sw.Lap())
					j.reportRecovery(seq, bd, false)
					// Exit on the agreed value only (see above): a new
					// failure mid-agreement is handled at the next step.
					if agreed != 1 {
						continue // someone's retry failed; repair again
					}
					break
				}
				// The shrink changed the worker count, so the epoch's
				// uniform step count changes too; recompute it here exactly
				// as a rank rewound across the epoch boundary would on
				// re-entering the epoch loop — otherwise the two groups
				// disagree on where the epoch ends.
				steps = state.StepsPerEpoch(comm.Size())
				if debugTrace {
					fmt.Printf("TRACE proc %d: post-recovery epoch %d steps=%d size=%d step=%d\n", ep.ID(), state.Epoch, steps, comm.Size(), state.Step)
				}
				// Fall through to apply the retried step below; if the
				// resume point was in the previous epoch, the epoch guard
				// on the inner loop re-enters it correctly.
			}
			if !math.IsNaN(loss) {
				epochLoss += loss
				lossBatches++
			}
			state.ApplyStep()
			if debugTrace {
				fmt.Printf("TRACE proc %d: applied (%d,%d) hash=%x size=%d comm=%x ops=%d\n", ep.ID(), state.Epoch, state.Step-1, state.Hash(), comm.Size(), comm.ID(), comm.OpCount())
			}
		}
		if state.Epoch != loopEpoch {
			// Skew reconciliation rewound into the previous epoch: redo it
			// from the restored point without the end-of-epoch bookkeeping.
			continue
		}
		if lossBatches > 0 {
			// Every rank records its shard-local epoch loss; the result
			// reports the final rank 0's history, which is then complete
			// even if the original rank 0 died mid-run.
			state.RecordLoss(state.Epoch, epochLoss/float64(lossBatches))
		}
		state.Epoch++
		state.Step = 0
	}
	// Release newcomers whose event fired during the final epoch: merge
	// them so their Join unblocks; they observe Epoch == Epochs and finish
	// immediately.
	if seq, joiners := j.joinersFor(state.Epoch); len(joiners) > 0 && !containsProc(joiners, ep.ID()) {
		bd := metrics.NewBreakdown()
		sw := vtime.NewStopwatch(&ep.Clock)
		grown, gerr := comm.Grow(joiners)
		if gerr != nil {
			return gerr
		}
		comm = grown
		bd.Add(metrics.PhaseMerge, sw.Lap())
		mkWorker(bd)
		sw.Restart()
		if err := j.syncState(w, state); err != nil {
			return err
		}
		bd.Add(metrics.PhaseStateSync, sw.Lap())
		// Keep the LR policy in lockstep with the newcomers (who resize
		// after their join), so replica hashes stay identical.
		state.LRPol.Resize(comm.Size())
		j.reportRecovery(seq, bd, false)
	}
	if debugTrace {
		fmt.Printf("TRACE proc %d: FINISHED size=%d\n", ep.ID(), comm.Size())
	}
	j.cfg.Trace.Finish(ep.Clock.Now(), int(ep.ID()), comm.Rank(), comm.Size())
	j.recordFinal(ep.ID(), state.Hash(), comm.Rank(), comm.Size(), state.LossHistory)
	return nil
}

// exchange runs one step's gradient allreduce through the middleware.
func (j *Job) exchange(w *horovod.Worker, state *train.State) error {
	if j.cfg.Train.Mode == train.Real {
		return w.AllreduceGrads(state.Names(), state.Grads())
	}
	return w.AllreduceGradsVirtual(j.cfg.Train.Spec.Name, state.Schedule())
}

// syncState broadcasts rank 0's state on the (grown) communicator so
// newcomers obtain the training state of the upcoming epoch.
func (j *Job) syncState(w *horovod.Worker, state *train.State) error {
	if j.cfg.Train.Mode == train.Real {
		flat := state.Flat()
		if err := w.BroadcastState(flat, 0); err != nil {
			return err
		}
		return state.SetFlat(flat)
	}
	head := state.Flat()
	if err := w.BroadcastState(head, 0); err != nil {
		return err
	}
	if err := state.SetFlat(head); err != nil {
		return err
	}
	return w.BroadcastStateVirtual(state.StateBytes(), 0)
}

// recover runs the paper's ULFM pipeline on a fault: revoke, acknowledge,
// agree, shrink, then apply the drop policy. dropped=true means the
// calling (alive) worker was removed by the node-drop policy and must
// exit. The returned breakdown carries the per-phase costs.
func (j *Job) recover(ep *simnet.Endpoint, comm *mpi.Comm, detect float64) (newComm *mpi.Comm, bd *metrics.Breakdown, seq int, dropped bool, err error) {
	bd = metrics.NewBreakdown()
	if detect < 0 {
		detect = 0
	}
	bd.Add(metrics.PhaseDetect, detect)
	sw := vtime.NewStopwatch(&ep.Clock)

	comm.Revoke()
	bd.Add(metrics.PhaseRevoke, sw.Lap())

	comm.FailureAck()
	if _, aerr := comm.Agree(1); aerr != nil && !mpi.IsProcFailed(aerr) {
		return nil, nil, 0, false, aerr
	}
	bd.Add(metrics.PhaseAgree, sw.Lap())

	shrunk, serr := comm.Shrink()
	if serr != nil {
		return nil, nil, 0, false, serr
	}
	bd.Add(metrics.PhaseShrink, sw.Lap())

	// The agreed dead set is the membership difference.
	dead := diffProcs(comm.Procs(), shrunk.Procs())
	seq = j.claimEvent(deadKey(dead), "failure")

	if j.cfg.DropPolicy == failure.KillNode {
		deadNodes := make(map[simnet.NodeID]bool)
		for _, d := range dead {
			if n, nerr := j.cluster.NodeOf(d); nerr == nil {
				deadNodes[n] = true
			}
		}
		var keep []simnet.ProcID
		for _, pr := range shrunk.Procs() {
			if n, nerr := j.cluster.NodeOf(pr); nerr == nil && !deadNodes[n] {
				keep = append(keep, pr)
			}
		}
		sub, suberr := shrunk.Subset(keep)
		if suberr != nil {
			return nil, nil, 0, false, suberr
		}
		bd.Add(metrics.PhaseShrink, sw.Lap())
		if sub == nil {
			return nil, bd, seq, true, nil
		}
		shrunk = sub
	}
	return shrunk, bd, seq, false, nil
}

// ensureSpawn provisions the event's newcomers exactly once.
func (j *Job) ensureSpawn(seq, n int, at float64) {
	j.mu.Lock()
	if j.spawned[seq] || n <= 0 {
		j.mu.Unlock()
		return
	}
	j.spawned[seq] = true
	j.mu.Unlock()
	procs := j.spawnWorkers(n, at, seq)
	j.registerPending(seq, procs)
}

// seqOf returns the event sequence a spawned worker belongs to.
func (j *Job) seqOf(p simnet.ProcID) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.joinSeq[p]
}

func containsProc(list []simnet.ProcID, p simnet.ProcID) bool {
	for _, x := range list {
		if x == p {
			return true
		}
	}
	return false
}

func cloneGrads(grads []tensor.Vector) []tensor.Vector {
	out := make([]tensor.Vector, len(grads))
	for i, g := range grads {
		out[i] = g.Clone()
	}
	return out
}

func restoreGrads(dst, src []tensor.Vector) {
	for i := range dst {
		copy(dst[i], src[i])
	}
}

func diffProcs(old, new []simnet.ProcID) []simnet.ProcID {
	inNew := make(map[simnet.ProcID]bool, len(new))
	for _, p := range new {
		inNew[p] = true
	}
	var out []simnet.ProcID
	for _, p := range old {
		if !inNew[p] {
			out = append(out, p)
		}
	}
	return out
}

func deadKey(dead []simnet.ProcID) string {
	ids := append([]simnet.ProcID(nil), dead...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return fmt.Sprintf("fail/%v", ids)
}
