package mpi

import (
	"testing"
	"time"
)

func newTestTuner() *tuner { return &tuner{observed: make(map[tunerKey]float64)} }

// The pipelined floor: at sizes whose per-rank segment is too small to
// split (PipelineChunksFor == 1), the pipelined schedule must never be
// picked — it would be the plain ring plus chunk bookkeeping. This test
// is what keeps the 1 MiB pipelined-vs-ring regression fixed.
func TestTunerDecideRespectsPipelineFloor(t *testing.T) {
	tn := newTestTuner()
	for _, bytes := range []int64{256 << 10, 1 << 20} {
		if PipelineChunksFor(bytes, 4) != 1 {
			t.Fatalf("premise broken: PipelineChunksFor(%d, 4) = %d, want 1", bytes, PipelineChunksFor(bytes, 4))
		}
		algo, chunks := tn.Decide(bytes, 4)
		if algo == AlgoPipelinedRing {
			t.Errorf("Decide(%d, 4) picked pipelined below the chunking floor", bytes)
		}
		if algo == AlgoPipelinedRing && chunks <= 1 {
			t.Errorf("Decide(%d, 4) returned pipelined with chunks=%d", bytes, chunks)
		}
	}
}

// With a fresh model, a large bandwidth-bound tensor must pick the
// pipelined ring with the size-derived chunk count (the static cost
// model prices its send/receive overlap under the ring's cost).
func TestTunerDecideStaticModelPicksPipelinedWhenSplittable(t *testing.T) {
	tn := newTestTuner()
	const bytes = 64 << 20
	algo, chunks := tn.Decide(bytes, 4)
	if algo != AlgoPipelinedRing {
		t.Fatalf("Decide(64MiB, 4) = %v, want pipelined", algo)
	}
	if want := PipelineChunksFor(bytes, 4); chunks != want {
		t.Fatalf("Decide(64MiB, 4) chunks = %d, want %d", chunks, want)
	}
}

// Observed latencies override the static model per cell: if the ring
// measures faster than the pipelined schedule at a size, the tuner must
// switch to it, and switch back as new observations flip the order.
func TestTunerObservationsOverrideModel(t *testing.T) {
	tn := newTestTuner()
	const bytes, world = 64 << 20, 4
	tn.Observe(AlgoPipelinedRing, bytes, world, 500*time.Millisecond)
	tn.Observe(AlgoRing, bytes, world, 100*time.Millisecond)
	if algo, _ := tn.Decide(bytes, world); algo != AlgoRing {
		t.Fatalf("Decide after ring-is-faster observations = %v, want ring", algo)
	}
	// Drive the pipelined EWMA well under the ring's.
	for i := 0; i < 20; i++ {
		tn.Observe(AlgoPipelinedRing, bytes, world, 10*time.Millisecond)
	}
	if algo, _ := tn.Decide(bytes, world); algo != AlgoPipelinedRing {
		t.Fatalf("Decide after pipelined-is-faster observations = %v, want pipelined", algo)
	}
}

// The EWMA update: first observation seeds the cell, later ones blend
// with weight tunerEWMA, and non-positive durations are ignored.
func TestTunerObserveEWMA(t *testing.T) {
	tn := newTestTuner()
	k := tunerKey{AlgoRing, sizeBucket(1 << 20), 8}
	tn.Observe(AlgoRing, 1<<20, 8, time.Second)
	if got := tn.observed[k]; got != 1.0 {
		t.Fatalf("first observation = %v, want 1.0", got)
	}
	tn.Observe(AlgoRing, 1<<20, 8, 2*time.Second)
	want := (1-tunerEWMA)*1.0 + tunerEWMA*2.0
	got := tn.observed[k]
	if d := got - want; d > 1e-12 || d < -1e-12 {
		t.Fatalf("blended observation = %v, want %v", got, want)
	}
	tn.Observe(AlgoRing, 1<<20, 8, -time.Second)
	if after := tn.observed[k]; after != got {
		t.Fatalf("negative duration moved the cell to %v", after)
	}
}

// Observations land in per-(algo, size-bucket, world) cells: a latency
// measured at one world size must not steer a different one.
func TestTunerCellsAreIndependent(t *testing.T) {
	tn := newTestTuner()
	tn.Observe(AlgoRing, 64<<20, 8, time.Millisecond)
	if _, ok := tn.observed[tunerKey{AlgoRing, sizeBucket(64 << 20), 4}]; ok {
		t.Fatal("observation at world 8 visible at world 4")
	}
	if len(tn.observed) != 1 {
		t.Fatalf("observed cells = %d, want 1", len(tn.observed))
	}
}

// PlanAllreduce resolves options without running a collective: explicit
// picks pass through with chunk defaulting, AlgoAuto consults the tuner
// only for bandwidth-bound tensors with a real group.
func TestPlanAllreduce(t *testing.T) {
	defaultTuner.reset()

	p := PlanAllreduce(16<<20, 4, AllreduceOptions{Algo: AlgoRing, Codec: CodecFP16})
	if p.Algo != AlgoRing || p.Codec != CodecFP16 || p.Tuned {
		t.Fatalf("explicit ring plan = %+v", p)
	}
	p = PlanAllreduce(16<<20, 4, AllreduceOptions{Algo: AlgoPipelinedRing})
	if p.Chunks != PipelineChunksFor(16<<20, 4) {
		t.Fatalf("pipelined plan chunks = %d, want size-derived %d", p.Chunks, PipelineChunksFor(16<<20, 4))
	}
	p = PlanAllreduce(16<<20, 4, AllreduceOptions{Algo: AlgoPipelinedRing, Chunks: 3})
	if p.Chunks != 3 {
		t.Fatalf("explicit chunks overridden: %+v", p)
	}
	p = PlanAllreduce(16<<20, 4, AllreduceOptions{})
	if !p.Tuned || p.Algo == AlgoAuto {
		t.Fatalf("auto plan not tuned: %+v", p)
	}
	if p.Algo == AlgoPipelinedRing && p.Chunks <= 1 {
		t.Fatalf("tuned pipelined plan with degenerate chunks: %+v", p)
	}
	// Below the bandwidth threshold or alone, auto stays the static path.
	if p := PlanAllreduce(1<<10, 4, AllreduceOptions{}); p.Tuned {
		t.Fatalf("small tensor plan claims tuned: %+v", p)
	}
	if p := PlanAllreduce(16<<20, 1, AllreduceOptions{}); p.Tuned {
		t.Fatalf("world-1 plan claims tuned: %+v", p)
	}

	if s := (AllreducePlan{Algo: AlgoRing, Chunks: 2, Codec: CodecFP16, Tuned: true}).String(); s != "algo=ring chunks=2 codec=fp16 (tuned)" {
		t.Fatalf("plan string = %q", s)
	}
}

func TestSizeBucket(t *testing.T) {
	for _, tc := range []struct {
		bytes int64
		want  int
	}{{1, 0}, {2, 1}, {3, 1}, {4, 2}, {1 << 20, 20}, {(1 << 20) + 1, 20}} {
		if got := sizeBucket(tc.bytes); got != tc.want {
			t.Errorf("sizeBucket(%d) = %d, want %d", tc.bytes, got, tc.want)
		}
	}
}
