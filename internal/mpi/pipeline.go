package mpi

import (
	"fmt"
	"strings"

	"repro/internal/transport"
)

// Chunk-pipelined ring allreduce. The plain ring moves one whole segment
// per step and fully serializes each step's send against its receive; the
// pipelined variant splits every segment into K chunks and overlaps the
// send of chunk k with the receive (and local reduction) of chunk k-1, so
// both directions of the ring — and the reduction ALU — stay busy within a
// step. This is the standard bucket pipelining NCCL and Horovod apply on
// top of the ring schedule; over the TCP backend it also bounds the frame
// size a single Send must assemble.
//
// Chunks of one step travel on the step's collective tag in posting order,
// and both transports deliver same-(source, tag) messages FIFO, so no
// per-chunk tag plane is needed — the same ordering argument the plain
// ring already relies on across steps.

// phases for the pipelined ring (see collectives.go / collectives2.go for
// the rest of the phase space).
const (
	phPipeRS = 13
	phPipeAG = 14
)

// DefaultPipelineChunks is the segment split factor K used by
// AllreducePipelinedRing. Four chunks is enough to hide the send/recv
// turnaround without shrinking frames into the latency-dominated regime.
const DefaultPipelineChunks = 4

// AllreducePipelinedRing is the chunk-pipelined ring allreduce with the
// default split factor. It produces bit-identical results to Allreduce's
// ring path: pipelining reorders the schedule, not the per-element
// reduction order.
func AllreducePipelinedRing[T Number](c *Comm, data []T, op Op) error {
	return AllreducePipelinedRingChunks(c, data, op, DefaultPipelineChunks)
}

// AllreducePipelinedRingChunks is AllreducePipelinedRing with an explicit
// chunk count K >= 1 (K = 1 degenerates to the plain ring schedule).
// Segment and chunk bounds are computed identically at every rank, so the
// schedule works for any n, including n not divisible by Size()*K and
// n < Size() (empty chunks travel as empty frames).
func AllreducePipelinedRingChunks[T Number](c *Comm, data []T, op Op, chunks int) error {
	return c.allreducePipelined(numBuf[T]{v: data}, op, chunks)
}

func (c *Comm) allreducePipelined(b buf, op Op, chunks int) error {
	seq := c.nextSeq()
	if err := c.checkCollective(); err != nil {
		return err
	}
	if chunks < 1 {
		return fmt.Errorf("mpi: pipelined allreduce: chunk count %d < 1", chunks)
	}
	if c.Size() == 1 {
		return nil
	}
	scope := &opScope{comm: c, members: c.memberSet(), abortOnRevoke: true}
	c.p.begin(scope)
	defer c.p.end()

	bounds := evenBounds(b.length(), c.Size())
	if err := c.reduceScatterRingPipelined(b, op, bounds, seq, chunks); err != nil {
		return err
	}
	return c.ringAllgatherPipelined(b, bounds, seq, chunks)
}

// PipelineChunksFor picks the chunk split factor K for a pipelined ring
// allreduce of totalBytes across world ranks. Each ring step moves one
// segment of totalBytes/world; splitting it into ~pipelineTargetChunk
// pieces keeps both ring directions busy without dropping frames into
// the latency-dominated regime. Small segments get K=1 — the plain ring
// schedule — which is what fixes the static-K regression at 1 MiB: a
// 256 KiB segment split four ways made 64 KiB frames whose per-frame
// overhead outweighed the overlap.
func PipelineChunksFor(totalBytes int64, world int) int {
	if world <= 1 {
		return 1
	}
	seg := totalBytes / int64(world)
	k := int(seg / pipelineTargetChunk)
	if k < 1 {
		return 1
	}
	if k > maxPipelineChunks {
		return maxPipelineChunks
	}
	return k
}

// pipelineTargetChunk is the per-chunk frame payload PipelineChunksFor
// aims for; maxPipelineChunks caps the split so tiny chunks never
// dominate per-frame overhead.
const (
	pipelineTargetChunk = 512 << 10
	maxPipelineChunks   = 8
)

// reduceScatterRingPipelined is reduceScatterRing with each per-step
// segment split into K chunks: the send of chunk k overlaps the receive
// and reduction of chunk k-1. After p-1 steps rank r holds chunk (r+1)%p
// of the result, exactly as the plain ring leaves it.
func (c *Comm) reduceScatterRingPipelined(b buf, op Op, bounds []int, seq, K int) error {
	p, r := c.Size(), c.rank
	right, left := (r+1)%p, (r-1+p)%p
	tag := c.collTag(seq, phPipeRS)
	for step := 0; step < p-1; step++ {
		sc := (r - step + p) % p
		rc := (r - step - 1 + 2*p) % p
		slo, rlo := bounds[sc], bounds[rc]
		sb := evenBounds(bounds[sc+1]-slo, K)
		rb := evenBounds(bounds[rc+1]-rlo, K)
		for k := 0; k < K; k++ {
			lo, hi := slo+sb[k], slo+sb[k+1]
			if err := c.sendRaw(right, tag, b.payload(lo, hi), b.bytesFor(hi-lo)); err != nil {
				return err
			}
			transport.Hit(c.p.ep.ID(), transport.PointPipelineRSChunk)
			if k > 0 {
				m, err := c.recvRaw(left, tag)
				if err != nil {
					return err
				}
				b.reduceIn(rlo+rb[k-1], rlo+rb[k], m.Data, op)
			}
		}
		m, err := c.recvRaw(left, tag)
		if err != nil {
			return err
		}
		b.reduceIn(rlo+rb[K-1], rlo+rb[K], m.Data, op)
	}
	return nil
}

// ringAllgatherPipelined circulates the completed chunks with the same
// K-way send/recv overlap; starting segment (r+1)%p matches the chunk the
// pipelined reduce-scatter completed at this rank. Chunk k of one step's
// receive is chunk k of the next step's send, and its send comes before
// the next receive into slot k, so a forwarding buffer holds at most K
// chunks.
func (c *Comm) ringAllgatherPipelined(b buf, bounds []int, seq, K int) error {
	p, r := c.Size(), c.rank
	right, left := (r+1)%p, (r-1+p)%p
	start := (r + 1) % p
	tag := c.collTag(seq, phPipeAG)
	rl := relayOf(b)
	defer rl.drop()
	for step := 0; step < p-1; step++ {
		sc := (start - step + 2*p) % p
		rc := (start - step - 1 + 2*p) % p
		slo, rlo := bounds[sc], bounds[rc]
		sb := evenBounds(bounds[sc+1]-slo, K)
		rb := evenBounds(bounds[rc+1]-rlo, K)
		keep := step < p-2
		for k := 0; k < K; k++ {
			lo, hi := slo+sb[k], slo+sb[k+1]
			if err := rl.send(c, right, tag, k, lo, hi); err != nil {
				return err
			}
			transport.Hit(c.p.ep.ID(), transport.PointPipelineAGChunk)
			if k > 0 {
				m, err := c.recvRaw(left, tag)
				if err != nil {
					return err
				}
				rl.recv(k-1, rlo+rb[k-1], rlo+rb[k], m.Data, keep)
			}
		}
		m, err := c.recvRaw(left, tag)
		if err != nil {
			return err
		}
		rl.recv(K-1, rlo+rb[K-1], rlo+rb[K], m.Data, keep)
	}
	return nil
}

// --- algorithm selection -------------------------------------------------

// AllreduceAlgo selects an allreduce schedule for AllreduceWith. The zero
// value (AlgoAuto) is the size rule of PlanAllreduce.
type AllreduceAlgo int

const (
	// AlgoAuto resolves by size (PlanAllreduce): the pipelined ring where
	// a segment splits into chunks, else Allreduce's pick — tree for
	// latency-bound payloads, ring for bandwidth-bound ones.
	AlgoAuto AllreduceAlgo = iota
	// AlgoRecursiveDoubling is the latency-optimal pairwise exchange.
	AlgoRecursiveDoubling
	// AlgoHierarchical reduces within nodes, rings across leaders.
	AlgoHierarchical
	// AlgoPipelinedRing is the chunk-pipelined bandwidth-optimal ring.
	AlgoPipelinedRing
	// AlgoRing is the plain ring schedule, forced even for payloads the
	// auto path would route to the tree (benchmarks use it to pin the
	// exact algorithm).
	AlgoRing
)

// algoCount is the number of AllreduceAlgo values (array sizing).
const algoCount = int(AlgoRing) + 1

func (a AllreduceAlgo) String() string {
	switch a {
	case AlgoAuto:
		return "auto"
	case AlgoRecursiveDoubling:
		return "recdouble"
	case AlgoHierarchical:
		return "hier"
	case AlgoPipelinedRing:
		return "pipelined"
	case AlgoRing:
		return "ring"
	default:
		return fmt.Sprintf("algo(%d)", int(a))
	}
}

// ParseAllreduceAlgo parses the flag spellings of the algorithm names
// (as accepted by cmd/elasticd's -allreduce flag).
func ParseAllreduceAlgo(s string) (AllreduceAlgo, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "auto":
		return AlgoAuto, nil
	case "recdouble", "recursive-doubling":
		return AlgoRecursiveDoubling, nil
	case "hier", "hierarchical":
		return AlgoHierarchical, nil
	case "pipelined", "pipelined-ring":
		return AlgoPipelinedRing, nil
	case "ring":
		return AlgoRing, nil
	default:
		return AlgoAuto, fmt.Errorf("mpi: unknown allreduce algorithm %q (want auto, ring, recdouble, hier, or pipelined)", s)
	}
}

// AllreduceWith runs an allreduce with an explicitly selected schedule —
// kept as the compact dispatch the ablation harness, the Horovod
// backend, and cmd/elasticd share. It is AllreduceOpts with only the
// algorithm chosen.
func AllreduceWith[T Number](c *Comm, data []T, op Op, algo AllreduceAlgo) error {
	return AllreduceOpts(c, data, op, AllreduceOptions{Algo: algo})
}
