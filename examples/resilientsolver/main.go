// Resilient solver: the resilient collective operations are not specific
// to deep learning. This example runs a distributed power iteration (the
// dominant-eigenvalue solver behind PageRank-style computations) on the
// ulfm.ResilientComm library and kills a worker mid-solve: the collective
// repairs itself, the survivors redistribute the rows, and the iteration
// converges to the same eigenvalue.
//
// Run with:
//
//	go run ./examples/resilientsolver
package main

import (
	"fmt"
	"log"
	"math"
	"sync"

	"repro/internal/mpi"
	"repro/internal/simnet"
	"repro/internal/ulfm"
)

const (
	n       = 64 // matrix dimension
	workers = 4
	iters   = 60
	killAt  = 20 // iteration at which worker 3 dies
)

// matRow returns row i of a fixed symmetric positive matrix with a known
// dominant eigenvector (diagonally dominant, deterministic).
func matRow(i int) []float64 {
	row := make([]float64, n)
	for j := 0; j < n; j++ {
		row[j] = 1.0 / float64(1+abs(i-j))
	}
	row[i] += 2
	return row
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func main() {
	cluster := simnet.New(simnet.Config{
		Nodes: workers, ProcsPerNode: 1,
		IntraNodeLatency: 1.5e-6, InterNodeLatency: 3e-6,
		IntraNodeBandwidth: 50e9, InterNodeBandwidth: 4e9,
		PerMessageOverhead: 1e-6, DetectLatency: 2e-3, SpawnDelay: 1,
	})
	procs := cluster.Procs()

	var mu sync.Mutex
	var eig []float64
	var repairs int

	var ready sync.WaitGroup
	ready.Add(workers)
	errs := simnet.RunAll(cluster, procs, func(rank int, ep *simnet.Endpoint) error {
		p := mpi.Attach(ep)
		comm, err := mpi.World(p, procs)
		if err != nil {
			return err
		}
		r := ulfm.New(comm, cluster, ulfm.DefaultPolicy())

		// x starts as the all-ones vector, replicated everywhere. part
		// holds this worker's rows of A·x and y the assembled product:
		// the allreduce reads part and writes y, so a retry after a
		// repair re-reads the contribution as the worker left it.
		x, part, y := make([]float64, n), make([]float64, n), make([]float64, n)
		for i := range x {
			x[i] = 1
		}
		var lambda float64
		for it := 0; it < iters; it++ {
			if it == killAt {
				ready.Done()
				ready.Wait()
				if rank == workers-1 {
					cluster.Kill(ep.ID())
					return nil
				}
			}
			// Each live worker owns a deterministic slice of the rows;
			// after a repair the slices recompute from the new size, so
			// the lost worker's rows redistribute automatically.
			clear(part)
			lo := r.Rank() * n / r.Size()
			hi := (r.Rank() + 1) * n / r.Size()
			for i := lo; i < hi; i++ {
				row := matRow(i)
				var s float64
				for j := 0; j < n; j++ {
					s += row[j] * x[j]
				}
				part[i] = s
			}
			// Resilient allreduce assembles the full y at every worker —
			// if someone died, the repair shrinks the communicator and
			// the iteration continues with redistributed rows.
			if err := ulfm.AllreduceInto(r, part, y, mpi.OpSum, mpi.AllreduceOptions{}); err != nil {
				return fmt.Errorf("rank %d iter %d: %w", rank, it, err)
			}
			// Rayleigh quotient and normalization (replicated math).
			var num, den float64
			for i := 0; i < n; i++ {
				num += x[i] * y[i]
				den += x[i] * x[i]
			}
			lambda = num / den
			var norm float64
			for _, v := range y {
				norm += v * v
			}
			norm = math.Sqrt(norm)
			for i := range y {
				x[i] = y[i] / norm
			}
		}
		mu.Lock()
		eig = append(eig, lambda)
		repairs = len(r.Events())
		mu.Unlock()
		return nil
	})
	if err := simnet.FirstError(errs); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("power iteration over a %dx%d matrix on %d workers, worker %d killed at iteration %d\n",
		n, n, workers, workers-1, killAt)
	fmt.Printf("repairs performed: %d\n", repairs)
	same := true
	for _, l := range eig[1:] {
		if math.Abs(l-eig[0]) > 1e-9 {
			same = false
		}
	}
	fmt.Printf("survivors agree on the dominant eigenvalue: %v (lambda = %.6f)\n", same, eig[0])

	// Cross-check against a serial power iteration.
	x := make([]float64, n)
	for i := range x {
		x[i] = 1
	}
	var lambda float64
	for it := 0; it < iters; it++ {
		y := make([]float64, n)
		for i := 0; i < n; i++ {
			row := matRow(i)
			for j := 0; j < n; j++ {
				y[i] += row[j] * x[j]
			}
		}
		var num, den, norm float64
		for i := 0; i < n; i++ {
			num += x[i] * y[i]
			den += x[i] * x[i]
			norm += y[i] * y[i]
		}
		lambda = num / den
		norm = math.Sqrt(norm)
		for i := range y {
			y[i] /= norm
		}
		x = y
	}
	fmt.Printf("serial reference lambda = %.6f (delta %.2e)\n", lambda, math.Abs(lambda-eig[0]))
}
