package ulfm

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/failure"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/simnet"
)

func testCluster(nodes, ppn int) *simnet.Cluster {
	return simnet.New(simnet.Config{
		Nodes:              nodes,
		ProcsPerNode:       ppn,
		IntraNodeLatency:   1e-6,
		InterNodeLatency:   3e-6,
		IntraNodeBandwidth: 50e9,
		InterNodeBandwidth: 4e9,
		DetectLatency:      1e-3,
		SpawnDelay:         2,
	})
}

// runWorld runs body at every rank over a fresh world, with a harness
// barrier helper for deterministic failure injection.
func runWorld(t *testing.T, c *simnet.Cluster, body func(rank int, r *ResilientComm, sync func()) error) map[simnet.ProcID]error {
	t.Helper()
	procs := c.Procs()
	var wg sync.WaitGroup
	wg.Add(len(procs))
	barrier := func() { wg.Done(); wg.Wait() }
	return simnet.RunAll(c, procs, func(rank int, ep *simnet.Endpoint) error {
		p := mpi.Attach(ep)
		comm, err := mpi.World(p, procs)
		if err != nil {
			return err
		}
		r := New(comm, c, DefaultPolicy())
		return body(rank, r, barrier)
	})
}

func TestAllreduceNoFailures(t *testing.T) {
	c := testCluster(2, 2)
	errs := runWorld(t, c, func(rank int, r *ResilientComm, _ func()) error {
		data := []float64{float64(rank + 1)}
		if err := Allreduce(r, data, mpi.OpSum); err != nil {
			return err
		}
		if data[0] != 10 {
			return fmt.Errorf("sum = %v", data[0])
		}
		if len(r.Events()) != 0 {
			return fmt.Errorf("no repairs expected")
		}
		return nil
	})
	if err := simnet.FirstError(errs); err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceSurvivesFailure(t *testing.T) {
	c := testCluster(2, 3)
	var mu sync.Mutex
	results := map[int]float64{}
	reconfigured := 0
	errs := runWorld(t, c, func(rank int, r *ResilientComm, barrier func()) error {
		r.policy.OnReconfigure = func(nc *mpi.Comm, bd *metrics.Breakdown) {
			mu.Lock()
			reconfigured++
			mu.Unlock()
		}
		barrier()
		if rank == 2 {
			c.Kill(r.Comm().Proc().ID())
			return nil
		}
		data := []float64{float64(rank + 1)}
		if err := Allreduce(r, data, mpi.OpSum); err != nil {
			return err
		}
		// Survivors contribute 1+2+4+5+6 = 18.
		if data[0] != 18 {
			return fmt.Errorf("rank %d: sum = %v, want 18", rank, data[0])
		}
		if r.Size() != 5 {
			return fmt.Errorf("size = %d after repair", r.Size())
		}
		if len(r.Events()) != 1 {
			return fmt.Errorf("events = %d", len(r.Events()))
		}
		return nil
	})
	if err := simnet.FirstError(errs); err != nil {
		t.Fatal(err)
	}
	_ = results
	if reconfigured != 5 {
		t.Fatalf("OnReconfigure fired %d times, want 5", reconfigured)
	}
}

func TestNodeDropPolicyRemovesCoLocated(t *testing.T) {
	c := testCluster(2, 3)
	var mu sync.Mutex
	dropped, kept := 0, 0
	procs := c.Procs()
	var wg sync.WaitGroup
	wg.Add(len(procs))
	errs := simnet.RunAll(c, procs, func(rank int, ep *simnet.Endpoint) error {
		p := mpi.Attach(ep)
		comm, err := mpi.World(p, procs)
		if err != nil {
			return err
		}
		pol := DefaultPolicy()
		pol.Drop = failure.KillNode
		r := New(comm, c, pol)
		wg.Done()
		wg.Wait()
		if rank == 4 { // node 1
			c.Kill(ep.ID())
			return nil
		}
		data := []float64{1}
		err = Allreduce(r, data, mpi.OpSum)
		if errors.Is(err, ErrDropped) {
			if ep.Node() != 1 {
				return fmt.Errorf("rank %d on node %d dropped unexpectedly", rank, ep.Node())
			}
			mu.Lock()
			dropped++
			mu.Unlock()
			return nil
		}
		if err != nil {
			return err
		}
		if data[0] != 3 || r.Size() != 3 {
			return fmt.Errorf("rank %d: sum=%v size=%d, want 3/3", rank, data[0], r.Size())
		}
		mu.Lock()
		kept++
		mu.Unlock()
		return nil
	})
	if err := simnet.FirstError(errs); err != nil {
		t.Fatal(err)
	}
	if dropped != 2 || kept != 3 {
		t.Fatalf("dropped=%d kept=%d, want 2/3", dropped, kept)
	}
}

func TestBarrierSurvivesFailure(t *testing.T) {
	c := testCluster(1, 4)
	errs := runWorld(t, c, func(rank int, r *ResilientComm, barrier func()) error {
		barrier()
		if rank == 1 {
			c.Kill(r.Comm().Proc().ID())
			return nil
		}
		if err := Barrier(r); err != nil {
			return err
		}
		if r.Size() != 3 {
			return fmt.Errorf("size = %d", r.Size())
		}
		return nil
	})
	if err := simnet.FirstError(errs); err != nil {
		t.Fatal(err)
	}
}

func TestBcastSurvivesNonRootFailure(t *testing.T) {
	c := testCluster(1, 4)
	errs := runWorld(t, c, func(rank int, r *ResilientComm, barrier func()) error {
		barrier()
		if rank == 3 {
			c.Kill(r.Comm().Proc().ID())
			return nil
		}
		data := make([]int64, 4)
		if rank == 0 {
			for i := range data {
				data[i] = int64(i + 10)
			}
		}
		if err := Bcast(r, data, 0); err != nil {
			return err
		}
		if data[2] != 12 {
			return fmt.Errorf("rank %d: data = %v", rank, data)
		}
		return nil
	})
	if err := simnet.FirstError(errs); err != nil {
		t.Fatal(err)
	}
}

func TestBcastRootFailureReported(t *testing.T) {
	c := testCluster(1, 3)
	errs := runWorld(t, c, func(rank int, r *ResilientComm, barrier func()) error {
		barrier()
		if rank == 0 {
			c.Kill(r.Comm().Proc().ID())
			return nil
		}
		data := make([]int64, 2)
		err := Bcast(r, data, 0)
		if err == nil {
			return fmt.Errorf("rank %d: bcast from dead root should fail", rank)
		}
		if mpi.IsFault(err) {
			return fmt.Errorf("rank %d: root failure should surface as a usage error after repair, got %v", rank, err)
		}
		return nil
	})
	if err := simnet.FirstError(errs); err != nil {
		t.Fatal(err)
	}
}

func TestAllgatherResizesRecv(t *testing.T) {
	c := testCluster(1, 4)
	errs := runWorld(t, c, func(rank int, r *ResilientComm, barrier func()) error {
		barrier()
		if rank == 2 {
			c.Kill(r.Comm().Proc().ID())
			return nil
		}
		out, err := Allgather(r, []int64{int64(rank)}, func(size int) []int64 {
			return make([]int64, size)
		})
		if err != nil {
			return err
		}
		if len(out) != 3 {
			return fmt.Errorf("rank %d: out = %v", rank, out)
		}
		// Survivor ranks 0,1,3 in order.
		if out[0] != 0 || out[1] != 1 || out[2] != 3 {
			return fmt.Errorf("rank %d: out = %v", rank, out)
		}
		return nil
	})
	if err := simnet.FirstError(errs); err != nil {
		t.Fatal(err)
	}
}

func TestTwoSequentialFailures(t *testing.T) {
	// Two failures across two operations: each op repairs once, and the
	// final membership reflects both losses.
	c := testCluster(1, 5)
	procs := c.Procs()
	var wg, wg2 sync.WaitGroup
	wg.Add(len(procs))
	wg2.Add(len(procs) - 1)
	errs := simnet.RunAll(c, procs, func(rank int, ep *simnet.Endpoint) error {
		p := mpi.Attach(ep)
		comm, err := mpi.World(p, procs)
		if err != nil {
			return err
		}
		r := New(comm, c, DefaultPolicy())
		wg.Done()
		wg.Wait()
		if rank == 1 {
			c.Kill(ep.ID())
			return nil
		}
		data := []float64{1}
		if err := Allreduce(r, data, mpi.OpSum); err != nil {
			return fmt.Errorf("rank %d first: %w", rank, err)
		}
		if data[0] != 4 {
			return fmt.Errorf("rank %d first sum = %v", rank, data[0])
		}
		wg2.Done()
		wg2.Wait()
		if rank == 3 {
			c.Kill(ep.ID())
			return nil
		}
		data = []float64{1}
		if err := Allreduce(r, data, mpi.OpSum); err != nil {
			return fmt.Errorf("rank %d second: %w", rank, err)
		}
		if data[0] != 3 || r.Size() != 3 {
			return fmt.Errorf("rank %d second sum=%v size=%d", rank, data[0], r.Size())
		}
		if len(r.Events()) != 2 {
			return fmt.Errorf("rank %d events = %d, want 2", rank, len(r.Events()))
		}
		return nil
	})
	if err := simnet.FirstError(errs); err != nil {
		t.Fatal(err)
	}
}

func TestEventsBreakdownRecorded(t *testing.T) {
	c := testCluster(1, 3)
	errs := runWorld(t, c, func(rank int, r *ResilientComm, barrier func()) error {
		barrier()
		if rank == 1 {
			c.Kill(r.Comm().Proc().ID())
			return nil
		}
		if err := Allreduce(r, []float64{1}, mpi.OpSum); err != nil {
			return err
		}
		evs := r.Events()
		if len(evs) != 1 {
			return fmt.Errorf("events = %d", len(evs))
		}
		for _, ph := range []metrics.Phase{metrics.PhaseRevoke, metrics.PhaseAgree, metrics.PhaseShrink} {
			if evs[0].Get(ph) < 0 {
				return fmt.Errorf("phase %s missing", ph)
			}
		}
		return nil
	})
	if err := simnet.FirstError(errs); err != nil {
		t.Fatal(err)
	}
}

// TestAllreduceRemembersInputWithoutAllocating: the wrapper keeps the
// caller's contribution in a buffer it owns for the life of the
// ResilientComm, so a steady-state operation allocates nothing that
// grows with the tensor. A world of one isolates the wrapper: the
// collective and the agreement are both local, and every byte allocated
// is the wrapper's own.
func TestAllreduceRemembersInputWithoutAllocating(t *testing.T) {
	c := testCluster(1, 1)
	errs := runWorld(t, c, func(rank int, r *ResilientComm, _ func()) error {
		data := make([]float64, 1<<20)
		step := func() error {
			data[0], data[len(data)-1] = 3, 4
			if err := Allreduce(r, data, mpi.OpSum); err != nil {
				return err
			}
			if data[0] != 3 || data[len(data)-1] != 4 {
				return fmt.Errorf("world-of-one sum = %v..%v, want 3..4", data[0], data[len(data)-1])
			}
			return nil
		}
		if err := step(); err != nil { // the first call sizes the buffer
			return err
		}
		const calls = 16
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			if err := step(); err != nil {
				return err
			}
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= 1<<10 {
			return fmt.Errorf("steady-state Allreduce of 1 Mi float64 allocates %d bytes per call, want < 1 KiB", per)
		}
		return nil
	})
	if err := simnet.FirstError(errs); err != nil {
		t.Fatal(err)
	}
}

// TestLatencyPathRetriesWithoutCopy: an 8 KiB allreduce is one agreement
// that carries the reduction. Aborted by a death, it repairs and retries
// like any other operation, yet the wrapper never copies the caller's
// contribution — a failed agreement leaves data untouched.
func TestLatencyPathRetriesWithoutCopy(t *testing.T) {
	c := testCluster(1, 5)
	errs := runWorld(t, c, func(rank int, r *ResilientComm, barrier func()) error {
		barrier()
		if rank == 2 {
			c.Kill(r.Comm().Proc().ID())
			return nil
		}
		data := make([]float64, 1024)
		for i := range data {
			data[i] = float64(rank + 1)
		}
		if err := Allreduce(r, data, mpi.OpSum); err != nil {
			return err
		}
		for i, v := range data {
			if v != 1+2+4+5 {
				return fmt.Errorf("rank %d: element %d = %v, want 12", rank, i, v)
			}
		}
		if len(r.Events()) != 1 || r.kept != nil {
			return fmt.Errorf("rank %d: %d repairs and a kept copy %T; want 1 and none", rank, len(r.Events()), r.kept)
		}
		return nil
	})
	if err := simnet.FirstError(errs); err != nil {
		t.Fatal(err)
	}
}

// TestRetryReducesOriginalAcrossLengths: on the bandwidth path (above
// 64 KiB) the kept buffer is reused across operations of different
// lengths — shorter (a stale tail behind the live prefix), then longer
// (regrown) — and an operation that is aborted by a failure and retried
// still reduces each survivor's original contribution at every element.
func TestRetryReducesOriginalAcrossLengths(t *testing.T) {
	c := testCluster(1, 5)
	procs := c.Procs()
	var wg sync.WaitGroup
	wg.Add(len(procs))
	errs := simnet.RunAll(c, procs, func(rank int, ep *simnet.Endpoint) error {
		p := mpi.Attach(ep)
		comm, err := mpi.World(p, procs)
		if err != nil {
			return err
		}
		r := New(comm, c, DefaultPolicy())
		reduce := func(n int, want float64) error {
			data := make([]float64, n)
			for i := range data {
				data[i] = float64(rank + 1)
			}
			if err := Allreduce(r, data, mpi.OpSum); err != nil {
				return fmt.Errorf("rank %d len %d: %w", rank, n, err)
			}
			for i, v := range data {
				if v != want {
					return fmt.Errorf("rank %d len %d: element %d = %v, want %v", rank, n, i, v, want)
				}
			}
			return nil
		}
		if err := reduce(16<<10, 15); err != nil {
			return err
		}
		wg.Done()
		wg.Wait()
		if rank == 2 {
			c.Kill(ep.ID())
			return nil
		}
		// Shorter than the kept buffer, aborted by rank 2's death, retried
		// on four survivors: 1+2+4+5.
		if err := reduce(12<<10, 12); err != nil {
			return err
		}
		if len(r.Events()) != 1 {
			return fmt.Errorf("rank %d: %d repairs, want 1", rank, len(r.Events()))
		}
		return reduce(3*16<<10, 12) // longer: the buffer regrows
	})
	if err := simnet.FirstError(errs); err != nil {
		t.Fatal(err)
	}
}
