// Package horovod reimplements the middleware layer the paper integrates
// into: a data-parallel worker with Horovod's characteristic machinery —
// tensor fusion (pack many small gradients into few large collectives),
// response caching (skip per-step tensor negotiation once a request
// signature has been coordinated), and pluggable communication backends.
//
// Two backends mirror the paper's two stacks:
//
//   - MPIBackend over internal/mpi — the ULFM-capable stack,
//   - GlooBackend over internal/gloo — the Elastic Horovod baseline stack,
//
// with optional delegation of bulk gradient movement to the simulated
// NCCL GPU communicator ("we delegated all GPU computation and
// communication tasks to NCCL"), keeping the GPU term identical on both
// sides of the comparison.
package horovod

import (
	"fmt"
	"hash/fnv"

	"repro/internal/gloo"
	"repro/internal/mpi"
	"repro/internal/nccl"
	"repro/internal/tensor"
	"repro/internal/vtime"
)

// Backend abstracts the host-side collective library.
type Backend interface {
	Rank() int
	Size() int
	// Allreduce sums float32 data elementwise across workers.
	Allreduce(data []float32) error
	// AllreduceVirtual runs the allreduce schedule for a virtual payload.
	AllreduceVirtual(bytes int64) error
	// Bcast broadcasts root's data to all workers.
	Bcast(data []float32, root int) error
	// BcastVirtual broadcasts a virtual payload.
	BcastVirtual(bytes int64, root int) error
	// Clock is the caller's virtual clock (for compute-cost accounting).
	Clock() *vtime.Clock
	// Name identifies the backend ("mpi" or "gloo").
	Name() string
}

// --- MPI backend -----------------------------------------------------------

// MPIBackend adapts an mpi.Comm (ULFM-capable) as a Horovod backend.
// Algo selects the allreduce schedule for gradient exchange (the zero
// value keeps the library's size-based pick, mpi.PlanAllreduce); Chunks
// pins the pipelined split factor and Codec selects the gradient wire
// format — zero values mean size-derived chunking and lossless
// full-width floats.
type MPIBackend struct {
	Comm   *mpi.Comm
	Algo   mpi.AllreduceAlgo
	Chunks int
	Codec  mpi.WireCodec
}

// NewMPIBackend wraps a communicator.
func NewMPIBackend(c *mpi.Comm) *MPIBackend { return &MPIBackend{Comm: c} }

func (b *MPIBackend) Rank() int { return b.Comm.Rank() }
func (b *MPIBackend) Size() int { return b.Comm.Size() }
func (b *MPIBackend) Allreduce(data []float32) error {
	return mpi.AllreduceOpts(b.Comm, data, mpi.OpSum,
		mpi.AllreduceOptions{Algo: b.Algo, Chunks: b.Chunks, Codec: b.Codec})
}
func (b *MPIBackend) AllreduceVirtual(bytes int64) error {
	return mpi.AllreduceVirtual(b.Comm, bytes)
}
func (b *MPIBackend) Bcast(data []float32, root int) error {
	return mpi.Bcast(b.Comm, data, root)
}
func (b *MPIBackend) BcastVirtual(bytes int64, root int) error {
	return mpi.BcastVirtual(b.Comm, bytes, root)
}
func (b *MPIBackend) Clock() *vtime.Clock { return b.Comm.Proc().Endpoint().VClock() }
func (b *MPIBackend) Name() string        { return "mpi" }

// --- Gloo backend ----------------------------------------------------------

// GlooBackend adapts a gloo.Context as a Horovod backend.
type GlooBackend struct{ Ctx *gloo.Context }

// NewGlooBackend wraps a context.
func NewGlooBackend(ctx *gloo.Context) *GlooBackend { return &GlooBackend{Ctx: ctx} }

func (b *GlooBackend) Rank() int                      { return b.Ctx.Rank() }
func (b *GlooBackend) Size() int                      { return b.Ctx.Size() }
func (b *GlooBackend) Allreduce(data []float32) error { return b.Ctx.Allreduce(data) }
func (b *GlooBackend) AllreduceVirtual(bytes int64) error {
	return b.Ctx.AllreduceVirtual(bytes)
}
func (b *GlooBackend) Bcast(data []float32, root int) error { return b.Ctx.Bcast(data, root) }
func (b *GlooBackend) BcastVirtual(bytes int64, root int) error {
	return b.Ctx.BcastVirtual(bytes, root)
}
func (b *GlooBackend) Clock() *vtime.Clock { return b.Ctx.Clock() }
func (b *GlooBackend) Name() string        { return "gloo" }

// --- worker ------------------------------------------------------------

// Config tunes the middleware, mirroring the Horovod environment variables
// the paper sets ("tensor fusion and response caching sizes").
type Config struct {
	// FusionBytes caps each fused buffer (HOROVOD_FUSION_THRESHOLD);
	// 64 MB default as in Horovod.
	FusionBytes int64
	// CacheResponses enables the response cache: per-step tensor
	// negotiation runs once per unique request signature.
	CacheResponses bool
	// GPU, when non-nil, carries bulk gradient bytes on the simulated
	// NCCL communicator while the host backend moves only per-group
	// control messages.
	GPU *nccl.Communicator
}

// DefaultConfig mirrors Horovod defaults.
func DefaultConfig() Config {
	return Config{FusionBytes: 64 << 20, CacheResponses: true}
}

// Worker is one Horovod rank: backend + fusion + response cache.
type Worker struct {
	be    Backend
	cfg   Config
	cache map[uint64]bool
	// negotiationBytes is the control-plane payload per tensor during
	// coordination (name + shape + dtype metadata).
	negotiationBytes int64
}

// NewWorker builds a worker over a backend.
func NewWorker(be Backend, cfg Config) *Worker {
	if cfg.FusionBytes <= 0 {
		cfg.FusionBytes = 64 << 20
	}
	return &Worker{be: be, cfg: cfg, cache: make(map[uint64]bool), negotiationBytes: 48}
}

// Rank and Size expose the backend topology.
func (w *Worker) Rank() int { return w.be.Rank() }
func (w *Worker) Size() int { return w.be.Size() }

// Backend returns the underlying backend (for recovery layers).
func (w *Worker) Backend() Backend { return w.be }

// ResetCache clears the response cache; required after any worker-set
// change, as Horovod does on reset events.
func (w *Worker) ResetCache() { w.cache = make(map[uint64]bool) }

// CacheLen reports the number of cached response signatures.
func (w *Worker) CacheLen() int { return len(w.cache) }

// signature hashes the request (tensor names + sizes + world size).
func (w *Worker) signature(names []string, sizes []int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "ws=%d;", w.be.Size())
	for i, n := range names {
		fmt.Fprintf(h, "%s:%d;", n, sizes[i])
	}
	return h.Sum64()
}

// negotiate models Horovod's tensor coordination round: the workers agree
// on which tensors are ready and how to fuse them. With the response cache
// enabled this happens once per signature.
func (w *Worker) negotiate(sig uint64, tensorCount int) error {
	if w.cfg.CacheResponses && w.cache[sig] {
		obsCacheHits.Inc()
		return nil
	}
	obsCacheMisses.Inc()
	if err := w.be.AllreduceVirtual(w.negotiationBytes * int64(tensorCount)); err != nil {
		return err
	}
	if w.cfg.CacheResponses {
		w.cache[sig] = true
	}
	return nil
}

// AllreduceGrads averages the named gradient tensors across all workers
// in place: negotiation (unless cached), fusion-packed sum-allreduce on
// the host backend, then division by the world size.
func (w *Worker) AllreduceGrads(names []string, grads []tensor.Vector) error {
	if len(names) != len(grads) {
		return fmt.Errorf("horovod: %d names for %d tensors", len(names), len(grads))
	}
	sizes := make([]int, len(grads))
	for i, g := range grads {
		sizes[i] = len(g)
	}
	if err := w.negotiate(w.signature(names, sizes), len(grads)); err != nil {
		return err
	}
	groups := tensor.PlanFusion(sizes, int(w.cfg.FusionBytes/4))
	for _, g := range groups {
		observeFusion(g.Elems, int(w.cfg.FusionBytes/4))
		fused := tensor.Pack(g, grads)
		if err := w.be.Allreduce(fused); err != nil {
			return err
		}
		fused.Scale(1 / float32(w.be.Size()))
		tensor.Unpack(g, fused, grads)
	}
	return nil
}

// AllreduceGradsVirtual runs one optimizer step's gradient exchange for a
// synthetic model given its tensor element schedule: negotiation, then per
// fusion group either a GPU (NCCL) allreduce plus a host control message,
// or a host virtual allreduce when no GPU communicator is attached.
func (w *Worker) AllreduceGradsVirtual(sig string, sizes []int) error {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%d", sig, w.be.Size(), len(sizes))
	if err := w.negotiate(h.Sum64(), len(sizes)); err != nil {
		return err
	}
	groups := tensor.PlanFusion(sizes, int(w.cfg.FusionBytes/4))
	for _, g := range groups {
		observeFusion(g.Elems, int(w.cfg.FusionBytes/4))
		bytes := int64(g.Elems) * 4
		if w.cfg.GPU != nil {
			// Host backend carries the per-group launch coordination;
			// NCCL moves the gradient bytes.
			if err := w.be.AllreduceVirtual(64); err != nil {
				return err
			}
			if err := w.cfg.GPU.Allreduce(w.be.Clock(), bytes); err != nil {
				return err
			}
			continue
		}
		if err := w.be.AllreduceVirtual(bytes); err != nil {
			return err
		}
	}
	return nil
}

// BroadcastState broadcasts the flat training state from root, used to
// synchronize newcomers and re-synchronize after recovery.
func (w *Worker) BroadcastState(state tensor.Vector, root int) error {
	return w.be.Bcast(state, root)
}

// BroadcastStateVirtual broadcasts a virtual state payload from root.
func (w *Worker) BroadcastStateVirtual(bytes int64, root int) error {
	if w.cfg.GPU != nil {
		if err := w.be.BcastVirtual(64, root); err != nil {
			return err
		}
		return w.cfg.GPU.Bcast(w.be.Clock(), bytes)
	}
	return w.be.BcastVirtual(bytes, root)
}
