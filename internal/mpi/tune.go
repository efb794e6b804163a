package mpi

import (
	"math"
	"sync"
	"time"

	"repro/internal/obs"
)

// Self-tuning allreduce selector. AlgoAuto on a real transport routes
// through here: Decide picks (algorithm, chunk count) for a tensor size
// and world size, seeded by a static alpha-beta (Hockney) cost model and
// refined by the latencies of completed allreduces. Rank 0 decides and
// broadcasts (see AllreduceOpts), so per-rank model drift can never
// diverge the schedule.
//
// The static model prices a schedule as steps·alpha + wire/beta:
//
//	ring       2(p-1) steps, 2·n·(p-1)/p bytes on the wire per rank
//	pipelined  same bytes, K·2(p-1) smaller steps, overlapped send/recv
//	recdouble  log2(p) steps, n·log2(p) bytes — wins only when alpha
//	           dominates, i.e. just above the tree threshold
//
// alpha is seeded from the live tcpnet flush-latency histogram (mean
// per-frame write cost, read through the shared obs registry — no
// import edge into the transport) and beta from a measured loopback
// throughput constant. Observations then override the model per
// (algo, size-bucket, world) cell via EWMA, so a mispriced constant is
// corrected after a handful of steps.
//
// The hierarchical schedule is deliberately not a candidate: the tuner
// only runs on transports without a placement oracle, where hierarchy
// degenerates to the flat ring plus leader-election overhead.

// tunerBetaDefault seeds the bandwidth term: bytes/second one rank can
// stream through the TCP data plane (loopback, rounded down).
const tunerBetaDefault = 100e6

// tunerAlphaDefault seeds the per-step latency term when no flush
// observations exist yet.
const tunerAlphaDefault = 150e-6

// tunerEWMA is the weight of a new observation against the cell's
// running estimate.
const tunerEWMA = 0.3

type tunerKey struct {
	algo   AllreduceAlgo
	bucket int // log2 size bucket
	world  int
}

type tuner struct {
	mu       sync.Mutex
	observed map[tunerKey]float64 // EWMA seconds per completed allreduce
}

var defaultTuner = &tuner{observed: make(map[tunerKey]float64)}

// tunerFlush is the tcpnet write-latency histogram; its mean seeds
// alpha. Registration is idempotent by family name, so resolving the
// handle here coexists with tcpnet's own registration in either init
// order.
var tunerFlush = obs.Default().Histogram("tcpnet_write_flush_seconds",
	"Latency of writing one frame to a peer, dial/retry and flush included.",
	obs.SecondsBuckets())

func sizeBucket(bytes int64) int {
	b := 0
	for v := bytes; v > 1; v >>= 1 {
		b++
	}
	return b
}

// alpha returns the per-step latency estimate: the mean of the live
// flush histogram once real frames have been written, the static seed
// before that.
func (t *tuner) alpha() float64 {
	if n := tunerFlush.Count(); n > 0 {
		if m := tunerFlush.Sum() / float64(n); m > 0 {
			return m
		}
	}
	return tunerAlphaDefault
}

// modelCost prices one schedule with the static alpha-beta model.
func modelCost(algo AllreduceAlgo, bytes int64, world, chunks int, alpha float64) float64 {
	p, n := float64(world), float64(bytes)
	wire := 2 * n * (p - 1) / p // ring family: reduce-scatter + allgather
	switch algo {
	case AlgoRing:
		return 2*(p-1)*alpha + wire/tunerBetaDefault
	case AlgoPipelinedRing:
		// K chunks per step pay K latencies but overlap send against
		// receive+reduce, hiding roughly half the serialization.
		k := float64(chunks)
		return 2*(p-1)*k*alpha + wire/tunerBetaDefault/1.5
	case AlgoRecursiveDoubling:
		steps := math.Ceil(math.Log2(p))
		return steps*alpha + steps*n/tunerBetaDefault
	default:
		return math.Inf(1)
	}
}

// Decide picks (algorithm, pipeline chunk count) for an allreduce of
// the given tensor bytes at the given world size. Pure with respect to
// its inputs and the current model state — it mutates nothing, so
// callers may probe it freely (PlanAllreduce does).
func (t *tuner) Decide(bytes int64, world int) (AllreduceAlgo, int) {
	chunks := PipelineChunksFor(bytes, world)
	candidates := []AllreduceAlgo{AlgoRing, AlgoRecursiveDoubling}
	if chunks > 1 {
		// The pipelined schedule with K=1 is the plain ring with extra
		// bookkeeping; only a real split is a distinct candidate. This
		// floor is what keeps pipelined from ever re-losing to ring at
		// 1 MiB — sizes whose segments are too small to split fall
		// through to the ring's own cost.
		candidates = append(candidates, AlgoPipelinedRing)
	}
	alpha := t.alpha()
	bucket := sizeBucket(bytes)

	t.mu.Lock()
	defer t.mu.Unlock()
	best, bestCost := AlgoRing, math.Inf(1)
	for _, a := range candidates {
		cost := modelCost(a, bytes, world, chunks, alpha)
		if obsCost, ok := t.observed[tunerKey{a, bucket, world}]; ok {
			cost = obsCost
		}
		if cost < bestCost {
			best, bestCost = a, cost
		}
	}
	if best != AlgoPipelinedRing {
		chunks = 0
	}
	return best, chunks
}

// Observe folds one completed allreduce's wall latency into the model
// cell for its (algorithm, size-bucket, world). Errored runs never get
// here (their latency measures failure detection, not the schedule).
func (t *tuner) Observe(algo AllreduceAlgo, bytes int64, world int, d time.Duration) {
	if d <= 0 {
		return
	}
	k := tunerKey{algo, sizeBucket(bytes), world}
	s := d.Seconds()
	t.mu.Lock()
	if prev, ok := t.observed[k]; ok {
		t.observed[k] = (1-tunerEWMA)*prev + tunerEWMA*s
	} else {
		t.observed[k] = s
	}
	t.mu.Unlock()
}

// reset clears the learned model (tests).
func (t *tuner) reset() {
	t.mu.Lock()
	t.observed = make(map[tunerKey]float64)
	t.mu.Unlock()
}
