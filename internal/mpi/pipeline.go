package mpi

import (
	"fmt"
	"strings"

	"repro/internal/transport"
)

// The ring. Every ring in this package is one schedule over a ring
// order: a reduce-scatter, then an allgather, each moving one segment
// per step and splitting it into K chunks. The send of chunk k goes out
// before the receive (and local reduction) of chunk k-1, so both
// directions of the ring and the reduction stay busy within a step:
// the bucket pipelining NCCL and Horovod apply on top of the ring, which
// over the TCP backend also bounds the frame one Send assembles. K = 1
// is the classic ring. Its callers:
//   - AlgoRing and the ring branch of Allreduce, with K = 1;
//   - AlgoPipelinedRing, with the planned K (PipelineChunksFor);
//   - the hierarchical schedule, over the node leaders, with K = 1;
//   - Allgather, which runs the allgather half from its own block.
//
// Segment i of n elements over p members is [i·n/p, (i+1)·n/p), and
// chunk k of a segment [lo,hi) is [lo+k·(hi-lo)/K, lo+(k+1)·(hi-lo)/K),
// computed identically at every rank, so any n works, including n not
// divisible by p·K and n < p (empty chunks travel as empty frames).
// Chunks of one step travel on the half's collective tag in posting
// order, and both transports deliver same-(source, tag) messages FIFO,
// so no per-chunk tag plane is needed.

// DefaultPipelineChunks is the segment split factor K of the
// allreduce ablation's pipelined column. Four chunks is enough to hide
// the send/recv turnaround without shrinking frames into the
// latency-dominated regime.
const DefaultPipelineChunks = 4

// ring is one ring order: p members, this rank's index idx among them,
// and the communicator ranks of its left and right neighbours.
type ring struct{ p, idx, left, right int }

// commRing is the ring through every rank of c in rank order.
func (c *Comm) commRing() ring {
	p, r := c.Size(), c.rank
	return ring{p: p, idx: r, left: (r - 1 + p) % p, right: (r + 1) % p}
}

// chunk returns the bounds of chunk k of K of segment i, with n
// elements split into p segments.
func chunk(n, p, i, K, k int) (lo, hi int) {
	slo, shi := i*n/p, (i+1)*n/p
	return slo + k*(shi-slo)/K, slo + (k+1)*(shi-slo)/K
}

// ringAllreduce is the ring allreduce over the whole communicator with
// every segment split into K chunks. It reads b's input and writes its
// output, whether or not they are one slice. No markDistribute between
// the halves (see compress.go).
func (c *Comm) ringAllreduce(b buf, op Op, K int) error {
	seq := c.nextSeq()
	if err := c.checkCollective(); err != nil {
		return err
	}
	if c.Size() == 1 {
		b.inPlace()
		return nil
	}
	scope := &opScope{comm: c, members: c.memberSet(), abortOnRevoke: true}
	c.p.begin(scope)
	defer c.p.end()

	rg := c.commRing()
	if err := c.reduceScatter(b, op, rg, seq, K); err != nil {
		return err
	}
	return c.allgather(b, rg, (rg.idx+1)%rg.p, seq, K)
}

// reduceScatter leaves segment (idx+1)%p fully reduced in b's output
// after p-1 steps: step s sends segment idx-s right and reduces segment
// idx-s-1 from the left. Step 0 sends the rank's own segment from the
// input; each later step sends the partial sum the step before wrote.
// Every segment but idx is reduced exactly once, as out = in ⊕ received,
// and segment idx is left for the allgather to write.
func (c *Comm) reduceScatter(b buf, op Op, rg ring, seq, K int) error {
	n, p := b.length(), rg.p
	tag := c.collTag(seq, phReduceScatter)
	for step := 0; step < p-1; step++ {
		sc, rc := (rg.idx-step+p)%p, (rg.idx-step-1+2*p)%p
		for k := 0; k <= K; k++ {
			if k < K {
				lo, hi := chunk(n, p, sc, K, k)
				if err := c.sendRaw(rg.right, tag, b.partial(lo, hi, step == 0), b.bytesFor(hi-lo)); err != nil {
					return err
				}
				transport.Hit(c.p.ep.ID(), transport.PointPipelineRSChunk)
			}
			if k > 0 {
				m, err := c.recvRaw(rg.left, tag)
				if err != nil {
					return err
				}
				lo, hi := chunk(n, p, rc, K, k-1)
				b.reduceIn(lo, hi, m.Data, op)
			}
		}
	}
	return nil
}

// allgather circulates complete segments so every member ends with all
// of them, starting from segment start: (idx+1)%p after reduceScatter,
// idx for a plain allgather of the member's own block. Chunk k of one
// step's receive is chunk k of the next step's send, and its send comes
// before the next receive into slot k, so a forwarding buffer holds at
// most K chunks.
func (c *Comm) allgather(b buf, rg ring, start, seq, K int) error {
	n, p := b.length(), rg.p
	tag := c.collTag(seq, phAllgather)
	rl := relayOf(b)
	defer rl.drop()
	for step := 0; step < p-1; step++ {
		sc, rc := (start-step+p)%p, (start-step-1+2*p)%p
		for k := 0; k <= K; k++ {
			if k < K {
				lo, hi := chunk(n, p, sc, K, k)
				if err := rl.send(c, rg.right, tag, k, lo, hi); err != nil {
					return err
				}
				transport.Hit(c.p.ep.ID(), transport.PointPipelineAGChunk)
			}
			if k > 0 {
				m, err := c.recvRaw(rg.left, tag)
				if err != nil {
					return err
				}
				lo, hi := chunk(n, p, rc, K, k-1)
				rl.recv(k-1, lo, hi, m.Data, step < p-2)
			}
		}
	}
	return nil
}

// forwarder is a buffer whose ring-allgather chunks travel on as
// received (compBuf; see "Forwarding" in compress.go). Chunk slot k is
// the chunk's index among the K a step moves.
type forwarder interface {
	hold(k, lo, hi int, pay any) // setIn, keeping pay for the next step
	forward(k int) any           // slot k's held payload, or nil
	release(k int)               // after slot k's forwarding send returns
	drop()                       // on every exit of the allgather
}

// relay runs a ring allgather's chunk traffic over b. A forwarder holds
// each received chunk until its forwarding send returns; any other
// buffer re-reads the tensor for every send and releases received
// chunks at once.
type relay struct {
	b  buf
	fw forwarder // nil: b does not forward
}

func relayOf(b buf) relay {
	fw, _ := b.(forwarder)
	return relay{b: b, fw: fw}
}

// send sends chunk slot k, [lo,hi): the chunk received one step earlier
// if the buffer holds it, else the range read from the tensor (the
// rank's own segment at step 0). Re-reading a range the allgather
// decoded sends the same bits, since quantizing is idempotent.
func (r relay) send(c *Comm, to, tag, k, lo, hi int) error {
	var pay any
	if r.fw != nil {
		pay = r.fw.forward(k)
	}
	if pay == nil {
		pay = r.b.payload(lo, hi)
	}
	err := c.sendRaw(to, tag, pay, r.b.bytesFor(hi-lo))
	if r.fw != nil {
		r.fw.release(k)
	}
	return err
}

// recv stores chunk slot k's received payload in [lo,hi); keep holds it
// for the next step's send (false on the last step).
func (r relay) recv(k, lo, hi int, pay any, keep bool) {
	if r.fw != nil && keep {
		r.fw.hold(k, lo, hi, pay)
		return
	}
	r.b.setIn(lo, hi, pay)
}

// drop releases whatever the relay still holds.
func (r relay) drop() {
	if r.fw != nil {
		r.fw.drop()
	}
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
