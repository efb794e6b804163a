package elastic

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/checkpoint"
	"repro/internal/failure"
	"repro/internal/gloo"
	"repro/internal/horovod"
	"repro/internal/metrics"
	"repro/internal/nccl"
	"repro/internal/simnet"
	"repro/internal/train"
	"repro/internal/transport"
	"repro/internal/vtime"
)

// deathWatch returns a channel closed when any of procs dies, plus a stop
// function releasing the watcher goroutines. It cancels KV waits that
// would otherwise hang when a rendezvous participant dies before arriving.
func deathWatch(cl *simnet.Cluster, procs []simnet.ProcID) (<-chan struct{}, func()) {
	out := make(chan struct{})
	stop := make(chan struct{})
	var once sync.Once
	for _, pid := range procs {
		ep := cl.Endpoint(pid)
		if ep == nil {
			continue
		}
		go func(done <-chan struct{}) {
			select {
			case <-done:
				once.Do(func() { close(out) })
			case <-stop:
			}
		}(ep.Done())
	}
	return out, func() { close(stop) }
}

// recoverable reports whether a round-setup error is a fresh failure the
// driver handles with another reset (vs a harness/usage error).
func recoverable(err error) bool {
	if errors.Is(err, gloo.ErrPoisoned) {
		return true
	}
	if _, ok := simnet.IsPeerFailed(err); ok {
		return true
	}
	return false
}

// runWorker is one worker's full lifecycle across reconfiguration rounds.
// Victims return nil after firing their failure; workers dropped by node
// blacklisting return nil once excluded from an assignment.
func (j *Job) runWorker(ep *simnet.Endpoint, round int, isNew bool) error {
	defer j.gate.Leave(ep.ID())
	err := j.workerLoop(ep, round, isNew)
	// A worker killed mid-flight (co-located with a victim on a killed
	// node) unwinds with ErrDead; that is an expected outcome, not a
	// harness failure.
	if errors.Is(err, simnet.ErrDead) || ep.Closed() {
		return nil
	}
	return err
}

func (j *Job) workerLoop(ep *simnet.Endpoint, round int, isNew bool) error {
	cfg := j.cfg
	sched := cfg.Schedule.Clone()
	state, err := train.NewState(cfg.Train)
	if err != nil {
		return err
	}

	var bd *metrics.Breakdown
	trigger := ""
	if isNew {
		// Software initialization of a fresh worker: the simnet spawn
		// already charged scheduler+binary load; the framework (Horovod,
		// training engine, CUDA contexts) loads now.
		bd = metrics.NewBreakdown()
		ep.Compute(cfg.FrameworkInit)
		bd.Add(metrics.PhaseNewWorkerInit, cfg.FrameworkInit+j.cluster.Config().SpawnDelay)
		trigger = "join"
	}

	lastStepDur := 0.05 // recompute estimator, refined after the first step
	failE, failS := -1, -1

	// Failure events address victims by their rank in the initial worker
	// set: reset rounds renumber ranks, and rollback re-traverses event
	// points, so matching against the current rank could kill the wrong
	// worker.
	origRank := -1
	if first := j.assignmentFor(j.cfg.StartRound); first != nil {
		origRank = first.rankOf(ep.ID())
	}

	for {
		transport.Hit(ep.ID(), transport.PointElasticRound)
		asn := j.assignmentFor(round)
		if asn == nil {
			return fmt.Errorf("elastic: missing assignment for round %d", round)
		}
		rank := asn.rankOf(ep.ID())
		if rank < 0 {
			// Dropped by node blacklisting: Elastic Horovod stops every
			// worker on a failed node.
			return nil
		}
		size := len(asn.procs)
		sw := vtime.NewStopwatch(&ep.Clock)

		// A participant can die mid-reset (before publishing its
		// rendezvous key or reaching a barrier); the watch cancels those
		// waits so the driver can plan yet another round, as the real
		// Elastic Horovod does via rendezvous timeouts.
		watch, stopWatch := deathWatch(j.cluster, asn.procs)
		replan := func(stage string, err error) error {
			stopWatch()
			if !recoverable(err) {
				return fmt.Errorf("elastic: round %d %s: %w", round, stage, err)
			}
			j.discover(ep, round+1)
			j.planRecovery(round+1, ep.Clock.Now())
			trigger = "failure"
			if bd == nil {
				bd = metrics.NewBreakdown()
			}
			round++
			return nil
		}

		ctx, err := gloo.ConnectCancel(ep, j.kv, cfg.Gloo, round, rank, size, watch)
		if err != nil {
			if rerr := replan("rendezvous", err); rerr != nil {
				return rerr
			}
			continue
		}
		if bd != nil {
			bd.Add(metrics.PhaseReinitGloo, sw.Lap())
		}

		// Resume rendezvous: local (per-node) then global barriers.
		nodeRanks := int64(0)
		for _, pid := range asn.procs {
			if n, err := j.cluster.NodeOf(pid); err == nil && n == ep.Node() {
				nodeRanks++
			}
		}
		if err := j.barrierCancel(ep, fmt.Sprintf("rdv/%d/node%d", round, ep.Node()), nodeRanks, watch); err != nil {
			ctx.Close()
			if rerr := replan("local rendezvous", err); rerr != nil {
				return rerr
			}
			continue
		}
		if bd != nil {
			bd.Add(metrics.PhaseRendezvousLocal, sw.Lap())
		}
		if err := j.barrierCancel(ep, fmt.Sprintf("rdv/%d/global", round), int64(size), watch); err != nil {
			ctx.Close()
			if rerr := replan("global rendezvous", err); rerr != nil {
				return rerr
			}
			continue
		}
		if bd != nil {
			bd.Add(metrics.PhaseRendezvousGlob, sw.Lap())
		}

		hv := cfg.Horovod
		if cfg.UseGPU {
			hv.GPU = nccl.Init(&ep.Clock, cfg.NCCL, size)
			if bd != nil {
				bd.Add(metrics.PhaseGPUReinit, sw.Lap())
			}
		}
		w := horovod.NewWorker(horovod.NewGlooBackend(ctx), hv)

		// Backward recovery: every survivor rolls back to its last commit
		// (commits are synchronized points, so the contents agree), then
		// rank 0 broadcasts so newcomers obtain the state too.
		if trigger == "failure" {
			if snap, lerr := j.ckpt.Load(int(ep.ID())); lerr == nil {
				if serr := state.SetFlat(snap.Model); serr != nil {
					return serr
				}
			}
		}
		if err := j.syncState(w, state, ep); err != nil {
			ctx.Close()
			if rerr := replan("state sync", err); rerr != nil {
				return rerr
			}
			continue
		}
		stopWatch()
		if bd != nil {
			bd.Add(metrics.PhaseStateSync, sw.Lap())
		}
		if trigger == "failure" && failE >= 0 {
			lost := stepsBetween(state.Epoch, state.Step, failE, failS, state.StepsPerEpoch(size))
			bd.Add(metrics.PhaseRecompute, float64(lost)*lastStepDur)
		}
		if bd != nil {
			j.reportRecovery(round, bd, isNew, trigger)
			bd = nil
		}
		if isNew {
			// Drop schedule events from before the join point.
			for sched.Pending(state.Epoch, state.Step) != nil {
			}
			isNew = false
		}
		// Elastic LR policy: rescale the target LR for the new world size.
		state.LRPol.Resize(size)

		// ---- training loop -------------------------------------------
		recovered := false
		for state.Epoch < cfg.Train.Epochs && !recovered {
			if state.Step == 0 {
				j.commit(ep, state)
			}
			steps := state.StepsPerEpoch(size)
			var epochLoss float64
			lossBatches := 0
			for state.Step < steps && !recovered {
				j.gate.Reach(ep.ID(), state.Epoch, state.Step)
				if ev := sched.Pending(state.Epoch, state.Step); ev != nil {
					switch ev.Type {
					case failure.Grow:
						// Graceful reset: driver discovered new hosts.
						bd = metrics.NewBreakdown()
						rsw := vtime.NewStopwatch(&ep.Clock)
						ctx.Close()
						ep.Compute(cfg.ShutdownCost)
						bd.Add(metrics.PhaseShutdown, rsw.Lap())
						j.discover(ep, round+1)
						j.planUpscale(round+1, ev.Add, ep.Clock.Now())
						ep.Compute(cfg.DriverCost)
						bd.Add(metrics.PhaseReinitElastic, rsw.Lap())
						trigger = "upscale"
						failE, failS = -1, -1
						round++
						recovered = true
						continue
					case failure.Fail:
						if origRank >= 0 && ev.Rank == origRank {
							j.gate.Await(j.cluster, ep.ID(), asn.procs, state.Epoch, state.Step)
							failure.Fire(j.cluster, ep.ID(), ev.Kind)
							return nil
						}
						// Not the victim: the fault will surface through
						// the collective below.
					}
				}
				stepSW := vtime.NewStopwatch(&ep.Clock)
				loss := state.ComputeGrads(rank, size)
				ep.Compute(state.StepTime())
				var xerr error
				if cfg.Train.Mode == train.Real {
					xerr = w.AllreduceGrads(state.Names(), state.Grads())
				} else {
					xerr = w.AllreduceGradsVirtual(cfg.Train.Spec.Name, state.Schedule())
				}
				if xerr != nil {
					if errors.Is(xerr, simnet.ErrDead) {
						return xerr
					}
					// Failure recovery: the paper's Figure 4 pipeline.
					failE, failS = state.Epoch, state.Step
					bd = metrics.NewBreakdown()
					detect := stepSW.Lap() - state.StepTime()
					bd.Add(metrics.PhaseDetect, detect)
					ctx.Close()
					ep.Compute(cfg.ShutdownCost)
					bd.Add(metrics.PhaseShutdown, cfg.ShutdownCost)
					j.discover(ep, round+1)
					j.planRecovery(round+1, ep.Clock.Now())
					ep.Compute(cfg.DriverCost)
					bd.Add(metrics.PhaseReinitElastic, j.kv.Config().OpLatency*3+cfg.DriverCost)
					trigger = "failure"
					round++
					recovered = true
					continue
				}
				if !math.IsNaN(loss) {
					epochLoss += loss
					lossBatches++
				}
				state.ApplyStep()
				lastStepDur = stepSW.Elapsed()
				if cfg.CommitEverySteps > 0 && state.Step%cfg.CommitEverySteps == 0 && state.Step < steps {
					j.commit(ep, state)
				}
			}
			if recovered {
				break
			}
			if lossBatches > 0 {
				// Every rank records its shard-local epoch loss so the
				// reported history stays complete across rank changes.
				state.RecordLoss(state.Epoch, epochLoss/float64(lossBatches))
			}
			state.Epoch++
			state.Step = 0
		}
		if recovered {
			continue
		}
		ctx.Close()
		j.recordFinal(ep.ID(), state.Hash(), rank, size, state.LossHistory)
		return nil
	}
}

// syncState broadcasts rank 0's training state to all workers. Real mode
// moves the actual flat state; virtual mode moves the progress counters
// for real plus a virtual payload of the model's state size.
func (j *Job) syncState(w *horovod.Worker, state *train.State, ep *simnet.Endpoint) error {
	if j.cfg.Train.Mode == train.Real {
		flat := state.Flat()
		if err := w.BroadcastState(flat, 0); err != nil {
			return err
		}
		return state.SetFlat(flat)
	}
	head := state.Flat() // counters only in virtual mode
	if err := w.BroadcastState(head, 0); err != nil {
		return err
	}
	if err := state.SetFlat(head); err != nil {
		return err
	}
	return w.BroadcastStateVirtual(state.StateBytes(), 0)
}

// commit saves the worker's own in-memory checkpoint (Elastic Horovod's
// state.commit()), charging the local copy cost.
func (j *Job) commit(ep *simnet.Endpoint, state *train.State) {
	transport.Hit(ep.ID(), transport.PointElasticCommit)
	flat := state.Flat()
	ep.Compute(float64(state.StateBytes()) / j.cfg.MemCopyBW)
	j.ckpt.Save(int(ep.ID()), &checkpoint.Snapshot{
		Epoch:      state.Epoch,
		Step:       state.Step,
		Model:      flat,
		LR:         state.Opt.LR(),
		SavedAtSec: ep.Clock.Now(),
	})
}

// discover models the driver's host-discovery pass (the script Elastic
// Horovod invokes to enumerate usable hosts): one registration write and
// one listing per worker against the rendezvous store.
func (j *Job) discover(ep *simnet.Endpoint, nextRound int) {
	j.kv.Put(&ep.Clock, fmt.Sprintf("disc/%d/%d", nextRound, ep.ID()), nil)
	j.kv.List(&ep.Clock, fmt.Sprintf("disc/%d/", nextRound))
}

// stepsBetween counts optimizer steps from (e0,s0) to (e1,s1) given a
// steps-per-epoch figure (an estimate when sizes changed in between).
func stepsBetween(e0, s0, e1, s1, perEpoch int) int {
	if perEpoch <= 0 {
		perEpoch = 1
	}
	d := (e1-e0)*perEpoch + (s1 - s0)
	if d < 0 {
		return 0
	}
	return d
}
