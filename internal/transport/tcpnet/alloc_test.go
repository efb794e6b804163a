package tcpnet_test

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/mpi"
)

// TestAllreduceAllocatesLessThanAChunk guards the send path's borrow
// contract end to end: a world-4 allreduce of 4 MiB of float64 over
// loopback TCP sends its chunks straight out of the tensor and reduces
// received chunks in place out of pooled frame buffers, so once the pools
// are warm an op allocates less per rank than one chunk. A send path that
// snapshots each outgoing chunk allocates six chunks per op per rank.
// Under fp16 every send encodes into the communicator's one reused
// payload scratch, or forwards a received chunk from a pooled frame, so
// the bound is one binary16 chunk; an encoder that allocates its
// payload per send spends six of them. The K = 8 case mirrors the
// steady_16m_fp16 pipeline, where every rank holds up to eight chunks
// to forward: the slots that hold them live on the communicator.
func TestAllreduceAllocatesLessThanAChunk(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops Puts at random, so pooled frame buffers are reallocated")
	}
	const (
		world  = 4
		elems  = 1 << 19 // 4 MiB of float64
		warmup = 3
		ops    = 8
	)
	segment := int64(elems) * 8 / world
	f16Segment := int64(elems) * 2 / world
	for _, tc := range []struct {
		name   string
		algo   mpi.AllreduceAlgo
		codec  mpi.WireCodec
		chunks int // 0: PipelineChunksFor's pick
		chunk  int64
	}{
		{"ring", mpi.AlgoRing, mpi.CodecRaw, 0, segment},
		{"pipelined", mpi.AlgoPipelinedRing, mpi.CodecRaw, 0, segment / int64(mpi.DefaultPipelineChunks)},
		{"fp16-ring", mpi.AlgoRing, mpi.CodecFP16, 0, f16Segment},
		{"fp16-pipelined", mpi.AlgoPipelinedRing, mpi.CodecFP16, 0, f16Segment / int64(mpi.DefaultPipelineChunks)},
		{"fp16-pipelined-k8", mpi.AlgoPipelinedRing, mpi.CodecFP16, 8, f16Segment / 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eps, procs := benchWorld(t, world)
			comms := make([]*mpi.Comm, world)
			tensors := make([][]float64, world)
			for i, ep := range eps {
				comm, err := mpi.World(mpi.Attach(ep), procs)
				if err != nil {
					t.Fatalf("world: %v", err)
				}
				comms[i] = comm
				tensors[i] = make([]float64, elems)
			}
			run := func(n int) {
				t.Helper()
				var wg sync.WaitGroup
				errs := make([]error, world)
				for r := 0; r < world; r++ {
					wg.Add(1)
					go func(r int) {
						defer wg.Done()
						for it := 0; it < n; it++ {
							for j := range tensors[r] {
								tensors[r][j] = float64(r + it)
							}
							opts := mpi.AllreduceOptions{Algo: tc.algo, Chunks: tc.chunks, Codec: tc.codec}
							if err := mpi.AllreduceOpts(comms[r], tensors[r], mpi.OpSum, opts); err != nil {
								errs[r] = err
								return
							}
						}
					}(r)
				}
				wg.Wait()
				for r, err := range errs {
					if err != nil {
						t.Fatalf("rank %d: %v", r, err)
					}
				}
			}
			run(warmup)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			run(ops)
			runtime.ReadMemStats(&after)
			// The last op summed r+ops-1 over the ranks.
			want := float64(world*(ops-1) + world*(world-1)/2)
			for r := range tensors {
				if got := tensors[r][elems-1]; got != want {
					t.Fatalf("rank %d: last element %v, want %v", r, got, want)
				}
			}
			perOpRank := int64(after.TotalAlloc-before.TotalAlloc) / (ops * world)
			t.Logf("%s: %d B allocated per op per rank (chunk %d B)", tc.name, perOpRank, tc.chunk)
			if perOpRank >= tc.chunk {
				t.Fatalf("%s: %d B allocated per op per rank, want < one %d B chunk", tc.name, perOpRank, tc.chunk)
			}
		})
	}
}
