package mpi

import (
	"fmt"
	"time"
)

// AllreduceOptions selects the full data-plane configuration of one
// allreduce: schedule, pipeline chunk count, and wire codec. The zero
// value reproduces Allreduce exactly (auto schedule, lossless wire).
type AllreduceOptions struct {
	// Algo picks the schedule. AlgoAuto resolves by PlanAllreduce's
	// size rule.
	Algo AllreduceAlgo
	// Chunks is the pipelined-ring split factor K. Zero or less means
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
}

func (p AllreducePlan) String() string {
	return fmt.Sprintf("algo=%s chunks=%d codec=%s", p.Algo, p.Chunks, p.Codec)
}

// AllreduceOpts is AllreduceInto in place: data is both the input and
// the output.
func AllreduceOpts[T Number](c *Comm, data []T, op Op, o AllreduceOptions) error {
	return AllreduceInto(c, data, data, op, o)
}

// AllreduceInto reduces in elementwise with op across the communicator
// into out, under explicit data-plane options, by the plan
// PlanAllreduce resolves for the tensor's size and the world. The plan
// depends on nothing else, so every member runs the same schedule
// without a word exchanged, and a ULFM retry after a shrink re-plans at
// the new world size by the same rule.
//
// in is never written, and on success every element of out is. The two
// may be one slice (an in-place allreduce), but not partly overlap. The
// ring reads in and writes out directly; the other schedules, and a
// world of one, copy in into out first and run in place.
func AllreduceInto[T Number](c *Comm, in, out []T, op Op, o AllreduceOptions) error {
	if _, err := SameBuffer(in, out); err != nil {
		return err
	}
	plan := PlanAllreduce(numBuf[T]{}.bytesFor(len(in)), c.Size(), o)
	b := allreduceBuf(in, out, plan.Codec, &c.f16)
	start := time.Now()
	err := c.runAllreduce(b, op, plan)
	observeAllreduce(plan.Algo, start, err != nil)
	return err
}

// PlanAllreduce resolves the plan AllreduceOpts runs for the given
// options against a tensor of the given byte size (elements times their
// full width, whatever the codec) at the given world size. It is a pure
// function of its arguments. Explicit schedules pass through, a
// pipelined one with a zero chunk count taking PipelineChunksFor's.
// AlgoAuto becomes the pipelined ring wherever PipelineChunksFor splits
// a segment (K > 1), and otherwise stays Allreduce's static pick: the
// latency tree at or below 64 KiB on the wire or with fewer elements
// than ranks, the plain ring above.
func PlanAllreduce(bytes int64, world int, o AllreduceOptions) AllreducePlan {
	plan := AllreducePlan{Algo: o.Algo, Chunks: o.Chunks, Codec: o.Codec}
	switch k := PipelineChunksFor(bytes, world); {
	case o.Algo == AlgoAuto && k > 1:
		plan.Algo, plan.Chunks = AlgoPipelinedRing, k
	case o.Algo == AlgoPipelinedRing && o.Chunks <= 0:
		plan.Chunks = k
	}
	return plan
}

// runAllreduce dispatches a resolved plan to its schedule.
func (c *Comm) runAllreduce(b buf, op Op, plan AllreducePlan) error {
	switch plan.Algo {
	case AlgoRecursiveDoubling:
		return c.allreduceRecDouble(b.inPlace(), op)
	case AlgoHierarchical:
		return c.allreduceHier(b.inPlace(), op)
	case AlgoPipelinedRing:
		return c.ringAllreduce(b, op, plan.Chunks)
	case AlgoRing:
		return c.ringAllreduce(b, op, 1)
	default:
		return c.allreduce(b, op)
	}
}
