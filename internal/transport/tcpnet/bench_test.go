package tcpnet_test

// BenchmarkTCPAllreduce runs real allreduces over loopback TCP: four
// workers in this process, each with its own Endpoint, reducing float32
// tensors of 1 MiB and 16 MiB. It exercises the full data plane — raw
// codec, pooled frame buffers, buffered writers — under both the plain
// ring (the auto pick at these sizes) and the chunk-pipelined ring, plus
// the 16 MiB float64 auto allreduce of the steady_16m workload, raw and
// fp16 (steady_16m_fp16). B/op is reported: the send path borrows the
// tensor, or encodes into a reused scratch under fp16, so it should stay
// far below one chunk. Every op refills its tensor first, as elasticd
// does every step, so sums stay finite and in the binary16 range.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/transport"
	"repro/internal/transport/tcpnet"
)

// benchWorld wires up n loopback endpoints with manual peer maps (no
// rendezvous — nothing is allowed to fail in a benchmark).
func benchWorld(b testing.TB, n int) ([]*tcpnet.Endpoint, []transport.ProcID) {
	b.Helper()
	cfg := tcpnet.Config{DialRetries: 4, DialBackoff: 20 * time.Millisecond, DialTimeout: time.Second}
	eps := make([]*tcpnet.Endpoint, n)
	peers := make(map[transport.ProcID]string, n)
	procs := make([]transport.ProcID, n)
	for i := 0; i < n; i++ {
		ep, err := tcpnet.Listen("127.0.0.1:0", cfg)
		if err != nil {
			b.Fatalf("listen: %v", err)
		}
		eps[i] = ep
		peers[transport.ProcID(i)] = ep.Addr()
		procs[i] = transport.ProcID(i)
	}
	for i, ep := range eps {
		ep.Start(transport.ProcID(i), peers)
	}
	b.Cleanup(func() {
		for _, ep := range eps {
			ep.Close()
		}
	})
	return eps, procs
}

func BenchmarkTCPAllreduce(b *testing.B) {
	const world = 4
	sizes := []struct {
		name  string
		elems int
	}{
		{"1MB", 1 << 18},  // 256k float32
		{"16MB", 1 << 22}, // 4M float32
	}
	algos := []struct {
		name string
		algo mpi.AllreduceAlgo
	}{
		{"ring", mpi.AlgoAuto}, // auto picks the ring at these sizes
		{"pipelined", mpi.AlgoPipelinedRing},
	}
	for _, sz := range sizes {
		for _, al := range algos {
			b.Run(fmt.Sprintf("%s/%s", sz.name, al.name), func(b *testing.B) {
				benchTCPAllreduce[float32](b, world, sz.elems, 4, mpi.AllreduceOptions{Algo: al.algo})
			})
		}
	}
	b.Run("16MB-f64/auto", func(b *testing.B) {
		benchTCPAllreduce[float64](b, world, 1<<21, 8, mpi.AllreduceOptions{})
	})
	b.Run("16MB-f64-fp16/auto", func(b *testing.B) {
		benchTCPAllreduce[float64](b, world, 1<<21, 8, mpi.AllreduceOptions{Codec: mpi.CodecFP16})
	})
}

func benchTCPAllreduce[T float32 | float64](b *testing.B, world, elems, elemBytes int, opts mpi.AllreduceOptions) {
	eps, procs := benchWorld(b, world)
	comms := make([]*mpi.Comm, world)
	tensors := make([][]T, world)
	for i, ep := range eps {
		p := mpi.Attach(ep)
		comm, err := mpi.World(p, procs)
		if err != nil {
			b.Fatalf("world: %v", err)
		}
		comms[i] = comm
		tensors[i] = make([]T, elems)
	}
	b.SetBytes(int64(elems * elemBytes))
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	errs := make([]error, world)
	for i := 0; i < world; i++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for it := 0; it < b.N; it++ {
				for j := range tensors[r] {
					tensors[r][j] = T(r + 1)
				}
				if err := mpi.AllreduceOpts(comms[r], tensors[r], mpi.OpSum, opts); err != nil {
					errs[r] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	b.StopTimer()
	for r, err := range errs {
		if err != nil {
			b.Fatalf("rank %d: %v", r, err)
		}
	}
}
