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
	"repro/internal/ulfm"
	"repro/internal/vtime"
)

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
	// A worker that stops while others go on hands over the agreement
	// decisions it retains: a survivor re-routed to it would wait for ever.
	defer p.Leave()
	state, err := train.NewState(cfg.Train)
	if err != nil {
		return err
	}

	var comm *mpi.Comm
	var r *ulfm.ResilientComm
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

	// Each step's gradient exchange is one sealed resilient operation: a
	// fault anywhere in it revokes, agrees, shrinks (and drops the node
	// under that policy) at every survivor alike, and the whole exchange
	// is retried on the repaired communicator with the gradients the
	// survivors still hold — no minibatch is recomputed. The per-repair
	// work of the training job runs in the callback.
	opSW := vtime.NewStopwatch(&ep.Clock) // since the exchange began, or the last repair's callback
	var (
		rec       *metrics.Breakdown // the last repair's breakdown, awaiting its retry phase
		recSeq    int
		reclaimed []int // the failed workers' unvisited samples, trained next epoch
	)
	report := func(retry float64) {
		if rec != nil {
			rec.Add(metrics.PhaseRetry, retry)
			j.reportRecovery(recSeq, rec, false)
			rec = nil
		}
	}
	policy := ulfm.Policy{Drop: cfg.DropPolicy, MaxRetries: 32}
	policy.OnReconfigure = func(newComm *mpi.Comm, bd *metrics.Breakdown) {
		// The time before this repair's pipeline is the detection for the
		// step's first repair, and the retry of the one before otherwise.
		before := opSW.Lap() - bd.Total()
		detect := before
		if rec != nil {
			report(before)
			detect = 0
		}
		// The callback runs with newComm already installed in r: the
		// communicator it replaced is the worker's own comm.
		old := comm
		comm = newComm
		dead := diffProcs(old.Procs(), newComm.Procs())
		rec = metrics.NewBreakdown()
		rec.Add(metrics.PhaseDetect, detect)
		rec.Merge(bd)
		recSeq = j.claimEvent(deadKey(dead), "failure")
		mkWorker(rec)
		if cfg.Scenario == ScenarioSame {
			j.ensureSpawn(recSeq, len(dead), ep.Clock.Now())
		}
		if cfg.Train.ReclaimLostSamples && cfg.Train.Mode == train.Real {
			// Every survivor derives the same list from the agreed
			// membership difference at the step they all stand at.
			for oldRank, pr := range old.Procs() {
				if containsProc(dead, pr) {
					reclaimed = append(reclaimed, state.UnvisitedAfter(oldRank, old.Size(), state.Step)...)
				}
			}
		}
		state.LRPol.Resize(newComm.Size())
		opSW.Restart()
	}
	adopt := func(c *mpi.Comm, bd *metrics.Breakdown) {
		comm = c
		r = ulfm.New(c, j.cluster, policy)
		mkWorker(bd)
	}
	// merge admits pending newcomers at an epoch boundary (Same/Up
	// scenarios) and hands them the survivors' state of the epoch ahead.
	merge := func(seq int, joiners []simnet.ProcID) error {
		bd := metrics.NewBreakdown()
		sw := vtime.NewStopwatch(&ep.Clock)
		grown, gerr := comm.Grow(joiners)
		if gerr != nil {
			return gerr
		}
		bd.Add(metrics.PhaseMerge, sw.Lap())
		adopt(grown, bd)
		sw.Restart()
		if err := j.syncState(w, state); err != nil {
			return err
		}
		bd.Add(metrics.PhaseStateSync, sw.Lap())
		// Keep the LR policy in lockstep with the newcomers (who resize
		// after their join), so replica hashes stay identical.
		state.LRPol.Resize(comm.Size())
		j.reportRecovery(seq, bd, false)
		return nil
	}

	if isNew {
		// Software init happens while the survivors keep training — the
		// newcomer is admitted at the next epoch boundary.
		bd := metrics.NewBreakdown()
		ep.Compute(cfg.FrameworkInit)
		bd.Add(metrics.PhaseNewWorkerInit, cfg.FrameworkInit+j.cluster.Config().SpawnDelay)
		sw := vtime.NewStopwatch(&ep.Clock)
		joined, err := mpi.Join(p)
		if err != nil {
			return err
		}
		bd.Add(metrics.PhaseMerge, sw.Lap())
		adopt(joined, bd)
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
		world, err := mpi.World(p, worldProcs)
		if err != nil {
			return err
		}
		adopt(world, nil)
	}

	// Failure events address victims by their rank in the ORIGINAL world:
	// ranks are renumbered by shrinks.
	origRank := -1
	for i, pr := range worldProcs {
		if pr == ep.ID() {
			origRank = i
		}
	}

	var gradsBackup []tensor.Vector
	for state.Epoch < cfg.Train.Epochs {
		// Epoch-boundary merge of pending newcomers: the paper's forward
		// recovery admits them at epoch i+1 with the survivors' state. A
		// worker that IS one of the pending newcomers skips this: it was
		// just merged by the survivors' Grow.
		if seq, joiners := j.joinersFor(state.Epoch); len(joiners) > 0 && !containsProc(joiners, ep.ID()) {
			if err := merge(seq, joiners); err != nil {
				return err
			}
		}
		j.clearPending(state.Epoch)
		state.SetCarryover(reclaimed)
		reclaimed = nil

		steps := state.StepsPerEpoch(comm.Size())
		var epochLoss float64
		lossBatches := 0
		for state.Step < steps {
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
			loss := state.ComputeGrads(rank, size)
			ep.Compute(state.StepTime())
			if cfg.Train.Mode == train.Real {
				gradsBackup = cloneGrads(state.Grads())
			}
			opSW.Restart()
			ran := false
			xerr := r.Do(func() error {
				if ran && cfg.Train.Mode == train.Real {
					restoreGrads(state.Grads(), gradsBackup) // the aborted attempt left partial sums
				}
				ran = true
				return j.exchange(w, state)
			})
			report(opSW.Lap())
			if errors.Is(xerr, ulfm.ErrDropped) {
				return nil // the node-drop policy removed this live worker
			}
			if xerr != nil {
				return xerr
			}
			if comm.Size() != size {
				// The shrink changed the worker count, so the epoch's
				// uniform step count changes too.
				steps = state.StepsPerEpoch(comm.Size())
			}
			if !math.IsNaN(loss) {
				epochLoss += loss
				lossBatches++
			}
			state.ApplyStep()
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
		if err := merge(seq, joiners); err != nil {
			return err
		}
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
