package main

// The daemon's elasticity half: a per-process autopilot seat driven at
// every step boundary, plus the warm-spare life cycle for processes
// started with -spare. The decision seat is rank 0 of the current
// communicator, so it migrates on repair exactly like the clustertest
// harness. The schedule half of the scale-down target is NOT replicated
// over the wire — every worker passes the same -scale-policy, so that
// component is a pure function of the schedule and the gathered world
// size, and each process computes it locally. The load half cannot be:
// only the seat samples the metric, so when -load-metric is set the
// seat's current target rides a resilient broadcast at each boundary
// and every member uses the replicated value for the eviction check.

import (
	"encoding/binary"
	"fmt"
	"log"
	"math"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/autopilot"
	"repro/internal/checkpoint"
	"repro/internal/mpi"
	"repro/internal/rendezvous"
	"repro/internal/tensor"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/transport/tcpnet"
	"repro/internal/ulfm"
)

// parseScalePolicy resolves the -scale-policy flag: "" disables the
// grow boundary, "swap" enables it with no schedule (replace deaths
// from the spare pool only), anything else is an autopilot schedule.
func parseScalePolicy(v string) (sched []autopilot.ScheduleStep, enabled bool, err error) {
	switch strings.TrimSpace(v) {
	case "":
		return nil, false, nil
	case "swap":
		return nil, true, nil
	}
	sched, err = autopilot.ParseSchedule(v)
	if err != nil {
		return nil, false, err
	}
	return sched, true, nil
}

// elastic is one worker's share of the control loop.
type elastic struct {
	ctl      *autopilot.Controller
	sched    []autopilot.ScheduleStep
	base     int  // gathered world size: the schedule's starting target
	loadOn   bool // -load-metric set: the seat's target replicates each boundary
	target   int  // last broadcast seat target; 0 until the first boundary lands
	xfer     autopilot.XferOptions
	admitted map[transport.ProcID]bool
	failed   map[transport.ProcID]bool
}

func newElastic(cl *rendezvous.Client, rec *trace.Recorder, sched []autopilot.ScheduleStep, rate float64, loadMetric string, loadHigh, loadLow float64, gate func(int) bool) *elastic {
	// The load probe reads whatever the instrumented packages already
	// publish to the default registry; before the metric's first
	// registration it reads NaN, which Decide treats as "hold".
	var load func() float64
	if loadMetric != "" {
		load = autopilot.LoadFromObs(nil, loadMetric)
	}
	return &elastic{
		ctl: autopilot.New(autopilot.Config{
			Target:   cl.World(),
			Schedule: sched,
			Load:     load,
			LoadHigh: loadHigh,
			LoadLow:  loadLow,
			SwapGate: gate,
			Trace:    rec,
			Proc:     cl.Proc(),
		}),
		sched:    sched,
		base:     cl.World(),
		loadOn:   loadMetric != "",
		xfer:     autopilot.XferOptions{RateBytesPerSec: rate},
		admitted: map[transport.ProcID]bool{},
		failed:   map[transport.ProcID]bool{},
	}
}

// targetAt is the schedule's desired world size after the boundary at
// `step` — deterministic, so every member (including newcomers that
// joined mid-schedule) agrees on it without any extra wire traffic.
func (el *elastic) targetAt(step int) int {
	t := el.base
	for _, s := range el.sched {
		if s.Step <= step {
			t += s.Delta
		}
	}
	return t
}

// idle is the pool fed to the controller: the spares the rendezvous hub
// advertises, minus the ones this seat already admitted or burned (the
// hub view lags an activation by one delta round-trip).
func (el *elastic) idle(cl *rendezvous.Client) []transport.ProcID {
	var out []transport.ProcID
	for _, p := range cl.SpareProcs() {
		if !el.admitted[p] && !el.failed[p] {
			out = append(out, p)
		}
	}
	return out
}

// daemon bundles the long-lived halves of the process so the step loop
// is shared between the gathered-worker and admitted-spare paths.
type daemon struct {
	cl           *rendezvous.Client
	ep           *tcpnet.Endpoint
	rec          *trace.Recorder
	opts         mpi.AllreduceOptions
	n            int
	steps        int
	stepInterval time.Duration
	el           *elastic          // nil = fixed world, no grow boundaries
	ck           *checkpoint.Store // nil unless -policy: rollback restore points
	stopping     *atomic.Bool      // set by the signal handler: report no more steps
}

// runSteps is the training loop from step `start`: one resilient
// allreduce per step, then (when -scale-policy is set) the autopilot
// grow boundary. Returns nil on completion or a clean scale-down leave;
// ulfm.ErrDropped propagates for the caller to report.
func (d *daemon) runSteps(r *ulfm.ResilientComm, start int) error {
	tensorBytes := int64(d.n) * 8
	// One tensor for the life of the run, refilled every step: the
	// reduction overwrites it in place, and everything that outlives the
	// step (the checkpoint model, the newcomer state blob) copies out.
	data := make([]float64, d.n)
	for step := start; step < d.steps; step++ {
		transport.Hit(d.cl.Proc(), transport.PointElasticRound)
		plan := mpi.PlanAllreduce(tensorBytes, r.Size(), d.opts)
		d.rec.Plan(d.ep.VClock().Now(), int(d.cl.Proc()), step, plan.Algo.String(), plan.Chunks, plan.Codec.String(), plan.Tuned)
		for i := range data {
			data[i] = float64(d.cl.Proc()) + 1
		}
		if err := ulfm.AllreduceOpts(r, data, mpi.OpSum, d.opts); err != nil {
			return fmt.Errorf("step %d: %w", step, err)
		}
		// A repair that adopted the rollback strategy leaves a one-shot
		// flag on the communicator: discard this round's (retried) result,
		// restore the last per-step snapshot, and resume from the step
		// after the one the snapshot is stamped with.
		if d.ck != nil && r.TakeRollback() {
			if snap, lerr := d.ck.Load(int(d.cl.Proc())); lerr == nil {
				d.rec.Membership(d.ep.VClock().Now(), int(d.cl.Proc()), "rollback_restore",
					map[string]any{"from_step": step, "to_step": snap.Step})
				log.Printf("elasticd: policy chose rollback, restoring step-%d checkpoint (was at step %d)",
					snap.Step, step)
				step = snap.Step
				continue
			} else {
				log.Printf("elasticd: rollback advised but no restore point: %v", lerr)
			}
		}
		if d.stopping.Load() {
			select {} // told to stop: stand still until the signal handler exits
		}
		fmt.Printf("step %3d  proc %d  size %d  sum %.0f\n",
			step, d.cl.Proc(), r.Size(), data[0])
		transport.Hit(d.cl.Proc(), transport.PointElasticCommit)
		if d.ck != nil {
			model := make(tensor.Vector, len(data))
			for i, v := range data {
				model[i] = float32(v)
			}
			d.ck.Save(int(d.cl.Proc()), &checkpoint.Snapshot{
				Step:       step,
				Model:      model,
				WorldSize:  r.Size(),
				SavedAtSec: d.ep.VClock().Now(),
			})
		}
		if d.el != nil && step < d.steps-1 {
			evict, err := d.boundary(r, step, data)
			if err != nil {
				return fmt.Errorf("boundary %d: %w", step, err)
			}
			if evict {
				d.rec.Membership(d.ep.VClock().Now(), int(d.cl.Proc()), "scale_down_leave",
					map[string]any{"step": step})
				log.Printf("elasticd: scaled down at step %d, leaving cleanly", step)
				return nil
			}
		}
		time.Sleep(d.stepInterval)
	}
	d.rec.Finish(d.ep.VClock().Now(), int(d.cl.Proc()), r.Comm().Rank(), r.Size())
	log.Printf("elasticd: done after %d steps, final size %d", d.steps, r.Size())
	return nil
}

// boundary is the epoch boundary after round `step`: rank 0 consults
// the autopilot, the decision replicates through ulfm.Grow's resilient
// broadcasts (plus one target broadcast when a load signal is on),
// admitted spares are streamed the model state (the round's reduced
// tensor) under the bandwidth cap, and if the world exceeds the target
// the highest rank reports evict=true and leaves.
func (d *daemon) boundary(r *ulfm.ResilientComm, step int, data []float64) (evict bool, err error) {
	el := d.el
	var admit []transport.ProcID
	if r.Comm().Rank() == 0 {
		now := d.ep.VClock().Now()
		el.ctl.ObserveMembers(now, r.Comm().Procs())
		el.ctl.ObservePool(el.idle(d.cl))
		dec := el.ctl.Decide(now, step)
		admit = dec.Admit
	}
	// With a load signal the target is no longer a pure function of the
	// schedule — only the seat samples the metric — so replicate it over
	// the pre-grow communicator. Pre-grow, because a spare admitted this
	// boundary is still inside RecvState and cannot take part in a
	// collective; it picks the value up at its first boundary as a full
	// member (until then its local targetAt equals its entry size, which
	// holds it in place). On seat migration the load-accrued component
	// resets and is re-derived from the metric at the next boundary.
	if el.loadOn {
		tgt := []int64{0}
		if r.Comm().Rank() == 0 {
			tgt[0] = int64(el.ctl.Target())
		}
		if berr := ulfm.Bcast(r, tgt, 0); berr != nil {
			return false, berr
		}
		if tgt[0] > 0 {
			el.target = int(tgt[0])
		}
	}
	newcomers, err := r.Grow(admit)
	if err != nil {
		return false, err
	}
	if r.Comm().Rank() == 0 && len(newcomers) > 0 {
		state := packState(data)
		for _, np := range newcomers {
			xfer := el.xfer
			xfer.Step = int64(step)
			if serr := autopilot.SendState(d.ep, np, state, xfer); serr != nil {
				// Burned spare: the next collective repairs the corpse out
				// and the next boundary tries the next one.
				log.Printf("elasticd: state stream to %d failed: %v", np, serr)
				el.failed[np] = true
				el.ctl.SwapFailed(np)
				continue
			}
			el.admitted[np] = true
			el.ctl.Admitted(d.ep.VClock().Now(), []transport.ProcID{np})
			if aerr := d.cl.Activate(np); aerr != nil {
				log.Printf("elasticd: activate %d: %v", np, aerr)
			}
			log.Printf("elasticd: admitted proc %d at step %d (world %d)", np, step, r.Size())
		}
	}
	target := el.targetAt(step)
	if el.loadOn && el.target > 0 {
		target = el.target
	}
	if target > 0 && r.Size() > target {
		procs := r.Comm().Procs()
		evictee := procs[len(procs)-1] // highest rank: the newest member
		if r.Comm().Rank() == 0 {
			el.ctl.Evicted(evictee)
		}
		if evictee == d.cl.Proc() {
			return true, nil
		}
	}
	return false, nil
}

// runSpare is a -spare process's life: stand by until the autopilot's
// Grow welcome arrives, receive the bandwidth-capped state stream, and
// train the remaining steps like any member — entering at the epoch
// after the one the state is stamped with, exactly as the paper
// specifies.
func (d *daemon) runSpare(p *mpi.Proc, policy ulfm.Policy) error {
	log.Printf("elasticd: warm spare proc %d standing by", d.cl.Proc())
	d.rec.Membership(d.ep.VClock().Now(), int(d.cl.Proc()), "spare_standby", nil)
	comm, err := mpi.Join(p)
	if err != nil {
		return fmt.Errorf("spare join: %w", err)
	}
	log.Printf("elasticd: admitted into communicator %#x (size %d), receiving state", comm.ID(), comm.Size())
	state, step, err := autopilot.RecvState(d.ep)
	if err != nil {
		return fmt.Errorf("spare state recv: %w", err)
	}
	model := unpackState(state)
	if len(model) == 0 {
		return fmt.Errorf("spare state recv: empty model")
	}
	d.rec.Membership(d.ep.VClock().Now(), int(d.cl.Proc()), "spare_enter",
		map[string]any{"step": step, "bytes": len(state)})
	log.Printf("elasticd: received %d state bytes (model[0]=%.0f, step %d), entering at step %d",
		len(state), model[0], step, step+1)
	return d.runSteps(ulfm.New(comm, nil, policy), int(step)+1)
}

// awaitSpares blocks until the rendezvous hub advertises at least n
// warm spares, so demo choreography (-spares) can start workers and
// spares in any order and still have the pool ready at the first
// boundary.
func (d *daemon) awaitSpares(n int, timeout time.Duration) {
	if n <= 0 {
		return
	}
	deadline := time.Now().Add(timeout)
	for len(d.cl.SpareProcs()) < n {
		if time.Now().After(deadline) {
			log.Printf("elasticd: warning: only %d of %d warm spares registered in %v",
				len(d.cl.SpareProcs()), n, timeout)
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	log.Printf("elasticd: %d warm spare(s) in the pool", len(d.cl.SpareProcs()))
}

// packState serializes the round's reduced tensor as the newcomer state
// blob; unpackState reverses it on the receiving spare.
func packState(data []float64) []byte {
	b := make([]byte, 8*len(data))
	for i, v := range data {
		binary.LittleEndian.PutUint64(b[i*8:], math.Float64bits(v))
	}
	return b
}

func unpackState(b []byte) []float64 {
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}
