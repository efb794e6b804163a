package main

// The daemon's training loop: one resilient allreduce per step, the
// policy engine's rollback restore points, and — when -scale-policy or
// -load-metric is set — the node's grow boundary between steps.

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
	"repro/internal/node"
	"repro/internal/tensor"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/ulfm"
	"repro/internal/vtime"
)

// parseScalePolicy resolves the -scale-policy flag: "" disables the
// grow boundary, "swap" enables it with no schedule (replace deaths
// from the spare pool only), anything else is an autopilot schedule.
func parseScalePolicy(v string) (*autopilot.Config, error) {
	switch strings.TrimSpace(v) {
	case "":
		return nil, nil
	case "swap":
		return &autopilot.Config{}, nil
	}
	sched, err := autopilot.ParseSchedule(v)
	return &autopilot.Config{Schedule: sched}, err
}

// daemon bundles what the step loop needs beyond the node.
type daemon struct {
	nd           *node.Node
	rec          *trace.Recorder
	opts         mpi.AllreduceOptions
	n            int
	steps        int
	stepInterval time.Duration
	ck           *checkpoint.Store // nil unless -policy: rollback restore points, slot 0
	stopping     *atomic.Bool      // set by the signal handler: report no more steps
}

// runSteps is the training loop from step `start`: one resilient
// allreduce per step, then the grow boundary. Returns nil on completion
// or a clean scale-down leave; ulfm.ErrDropped propagates for the
// caller to report.
func (d *daemon) runSteps(start int) error {
	nd, r := d.nd, d.nd.R
	tensorBytes := int64(d.n) * 8
	// One tensor for the life of the run, refilled every step: the
	// reduction overwrites it in place, and everything that outlives the
	// step (the checkpoint model, the newcomer state stream) copies out.
	data := make([]float64, d.n)
	// The rollback restore point is staged in one vector too: the store
	// keeps its own copy of whatever it is handed.
	var model tensor.Vector
	if d.ck != nil {
		model = make(tensor.Vector, d.n)
	}
	for step := start; step < d.steps; step++ {
		transport.Hit(nd.Proc, transport.PointElasticRound)
		plan := mpi.PlanAllreduce(tensorBytes, r.Size(), d.opts)
		d.rec.Plan(nd.Now(), int(nd.Proc), step, plan.Algo.String(), plan.Chunks, plan.Codec.String(), plan.Tuned)
		for i := range data {
			data[i] = float64(nd.Proc) + 1
		}
		if err := ulfm.AllreduceOpts(r, data, mpi.OpSum, d.opts); err != nil {
			return fmt.Errorf("step %d: %w", step, err)
		}
		// A repair that adopted the rollback strategy leaves a one-shot
		// flag on the communicator: discard this round's (retried) result,
		// restore the last per-step snapshot, and resume from the step
		// after the one the snapshot is stamped with.
		if d.ck != nil && r.TakeRollback() {
			if snap, lerr := d.ck.Load(0); lerr == nil {
				d.rec.Membership(nd.Now(), int(nd.Proc), "rollback_restore",
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
			step, nd.Proc, r.Size(), data[0])
		transport.Hit(nd.Proc, transport.PointElasticCommit)
		if d.ck != nil {
			for i, v := range data {
				model[i] = float32(v)
			}
			d.ck.Save(0, &checkpoint.Snapshot{
				Step:       step,
				Model:      model,
				WorldSize:  r.Size(),
				SavedAtSec: nd.Now(),
			})
		}
		if step < d.steps-1 {
			evict, err := nd.Boundary(step, stateOf(data))
			if err != nil {
				return fmt.Errorf("boundary %d: %w", step, err)
			}
			if evict {
				d.rec.Membership(nd.Now(), int(nd.Proc), "scale_down_leave",
					map[string]any{"step": step})
				log.Printf("elasticd: scaled down at step %d, leaving cleanly", step)
				return nil
			}
		}
		time.Sleep(d.stepInterval)
	}
	d.rec.Finish(nd.Now(), int(nd.Proc), r.Comm().Rank(), r.Size())
	log.Printf("elasticd: done after %d steps, final size %d", d.steps, r.Size())
	return nil
}

// awaitSpares blocks until the rendezvous hub advertises at least n
// warm spares, so demo choreography (-spares) can start workers and
// spares in any order and still have the pool ready at the first
// boundary.
func (d *daemon) awaitSpares(n int, timeout time.Duration) {
	if n <= 0 {
		return
	}
	cl := d.nd.CL
	if !vtime.WaitUntil(timeout, func() bool { return len(cl.SpareProcs()) >= n }) {
		log.Printf("elasticd: warning: only %d of %d warm spares registered in %v",
			len(cl.SpareProcs()), n, timeout)
		return
	}
	log.Printf("elasticd: %d warm spare(s) in the pool", len(cl.SpareProcs()))
}

// stateOf is the newcomer state blob: the round's reduced tensor as
// little-endian float64s. Where the host allows it is a view of data
// itself, so a boundary that admits nobody copies nothing; data is not
// written again until the boundary has returned.
func stateOf(data []float64) []byte {
	if _, _, b, ok := transport.RawSendView(data); ok {
		return b
	}
	b := make([]byte, 8*len(data))
	for i, v := range data {
		binary.LittleEndian.PutUint64(b[i*8:], math.Float64bits(v))
	}
	return b
}
