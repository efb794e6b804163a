package mpi

import (
	"fmt"
	"time"

	"repro/internal/transport"
)

// AllreduceOptions selects the full data-plane configuration of one
// allreduce: schedule, pipeline chunk count, and wire codec. The zero
// value reproduces Allreduce exactly (auto schedule, lossless wire).
type AllreduceOptions struct {
	// Algo picks the schedule. AlgoAuto defers to the self-tuning
	// selector on real transports for bandwidth-bound tensors, and to
	// Allreduce's static ring/tree pick everywhere else.
	Algo AllreduceAlgo
	// Chunks is the pipelined-ring split factor K. Zero means
	// PipelineChunksFor's size-based pick; ignored by other schedules.
	Chunks int
	// Codec is the wire representation of reduction traffic. Lossy
	// codecs apply to []float32 / []float64; other element types always
	// travel lossless.
	Codec WireCodec
}

// AllreducePlan is a fully resolved decision: what AllreduceOpts will
// actually run for a given options/tensor/world combination.
type AllreducePlan struct {
	Algo   AllreduceAlgo
	Chunks int
	Codec  WireCodec
	// Tuned reports whether the self-tuning selector made the pick (as
	// opposed to an explicit request or the static auto path).
	Tuned bool
}

func (p AllreducePlan) String() string {
	s := fmt.Sprintf("algo=%s chunks=%d codec=%s", p.Algo, p.Chunks, p.Codec)
	if p.Tuned {
		s += " (tuned)"
	}
	return s
}

// AllreduceOpts runs an allreduce under explicit data-plane options.
//
// When o.Algo is AlgoAuto, the tensor is bandwidth-bound, and the
// transport is a real network (no placement oracle — the simulator keeps
// its virtual-time auto path), rank 0 consults the self-tuning selector
// and broadcasts the (algo, chunks) pick to the group before the
// reduction starts. The negotiation is itself a collective, so every
// member — including ULFM retries after a shrink, which re-enter here
// and renegotiate at the new world size — executes the same schedule.
// Everything the selector reads is rank-local, so only the broadcast
// keeps the decision uniform.
func AllreduceOpts[T Number](c *Comm, data []T, op Op, o AllreduceOptions) error {
	bytes := numBuf[T]{}.bytesFor(len(data))
	plan, err := resolvePlan(c, bytes, o)
	if err != nil {
		return err
	}
	b := allreduceBuf(data, plan.Codec, &c.f16)
	start := time.Now()
	err = c.runAllreduce(b, op, plan)
	observeAllreduce(plan.Algo, start, err != nil)
	if err == nil && tunable(c, bytes) {
		// Feed the selector from every real-transport run, explicit
		// picks included — benchmarks and ablations sharpen the model
		// for free. Simulator runs are excluded: their wall clock
		// measures the virtual-time engine, not the network.
		defaultTuner.Observe(plan.Algo, bytes, c.Size(), time.Since(start))
	}
	return err
}

// resolvePlan turns requested options into the concrete plan for this
// tensor size and world, running the tuner negotiation when it applies.
func resolvePlan(c *Comm, bytes int64, o AllreduceOptions) (AllreducePlan, error) {
	plan := AllreducePlan{Algo: o.Algo, Chunks: o.Chunks, Codec: o.Codec}
	if o.Algo == AlgoAuto && tunable(c, bytes) {
		if c.Rank() == 0 {
			plan.Algo, plan.Chunks = defaultTuner.Decide(bytes, c.Size())
		}
		pick := []int64{int64(plan.Algo), int64(plan.Chunks)}
		if err := Bcast(c, pick, 0); err != nil {
			return plan, err
		}
		plan.Algo, plan.Chunks = AllreduceAlgo(pick[0]), int(pick[1])
		plan.Tuned = true
		observeTunerDecision(plan.Algo)
	}
	if plan.Algo == AlgoPipelinedRing && plan.Chunks <= 0 {
		plan.Chunks = PipelineChunksFor(bytes, c.Size())
	}
	return plan, nil
}

// tunable reports whether the self-tuning selector should pick the
// schedule: a real transport (backends with a placement oracle are the
// simulator's — their virtual-time numbers must keep the legacy static
// pick), a bandwidth-bound tensor, and an actual group to schedule.
func tunable(c *Comm, bytes int64) bool {
	if c.Size() <= 1 || bytes <= smallThreshold {
		return false
	}
	_, sim := c.p.ep.(transport.Locator)
	return !sim
}

// PlanAllreduce resolves the plan AllreduceOpts would run for the given
// options against a tensor of the given byte size at the given world
// size, without running a collective. cmd/elasticd prints this at
// startup and stamps it into the trace journal every round. The tuned
// pick reflects the selector's current model, so the answer sharpens as
// observations accumulate.
func PlanAllreduce(bytes int64, world int, o AllreduceOptions) AllreducePlan {
	plan := AllreducePlan{Algo: o.Algo, Chunks: o.Chunks, Codec: o.Codec}
	if o.Algo == AlgoAuto && world > 1 && bytes > smallThreshold {
		plan.Algo, plan.Chunks = defaultTuner.Decide(bytes, world)
		plan.Tuned = true
	}
	if plan.Algo == AlgoPipelinedRing && plan.Chunks <= 0 {
		plan.Chunks = PipelineChunksFor(bytes, world)
	}
	return plan
}

// runAllreduce dispatches a resolved plan to its schedule.
func (c *Comm) runAllreduce(b buf, op Op, plan AllreducePlan) error {
	switch plan.Algo {
	case AlgoRecursiveDoubling:
		return c.allreduceRecDouble(b, op)
	case AlgoHierarchical:
		return c.allreduceHier(b, op)
	case AlgoPipelinedRing:
		return c.allreducePipelined(b, op, plan.Chunks)
	case AlgoRing:
		return c.allreduceRing(b, op)
	default:
		return c.allreduce(b, op)
	}
}
