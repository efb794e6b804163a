package mpi_test

// TestGrowAdmitsNewWorkers (ulfm_test.go) proves the Grow/Join
// handshake on simnet's in-process fabric; this is the same scenario
// ported to the real tcpnet stack through the clustertest harness, so
// the grow path runs under -race on real sockets like every other
// collective: three gathered workers Grow two registered spares in,
// the spares Join, and all five allreduce together bit-identically.
// Teardown's leak assertions cover the pooled-frame and goroutine
// hygiene of the newcomer path. The ZeroCopyMin=1 case plays the same
// handshake on bare loopback endpoints that deliver every frame as a
// lazy view, the join message included, as a large world's join is.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/clustertest"
	"repro/internal/mpi"
	"repro/internal/transport"
	"repro/internal/transport/tcpnet"
	"repro/internal/vtime"
)

func TestGrowAdmitsNewWorkersTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	t.Run("harness", growOnHarness)
	t.Run("ZeroCopyMin=1", growOnLazyLoopback)
}

func growOnHarness(t *testing.T) {
	c := clustertest.New(t, clustertest.Config{World: 3, Seed: 1, Spares: 2})
	newProcs := []transport.ProcID{c.Spares[0].Proc, c.Spares[1].Proc}
	const grownSize = 5

	var mu sync.Mutex
	sums := map[transport.ProcID]float64{}
	record := func(p transport.ProcID, v float64) {
		mu.Lock()
		sums[p] = v
		mu.Unlock()
	}

	var wg sync.WaitGroup
	errs := make(chan error, len(c.Spares))
	for _, sp := range c.Spares {
		wg.Add(1)
		go func(sp *clustertest.Worker) {
			defer wg.Done()
			// The welcome peer map predates the other spare; make every
			// grown member dialable before the collective (idempotent).
			for _, other := range c.Spares {
				if other.Proc != sp.Proc {
					sp.EP.Start(sp.Proc, map[transport.ProcID]string{other.Proc: other.EP.Addr()})
				}
			}
			comm, err := mpi.Join(mpi.Attach(c.Eng.Wrap(sp.EP)))
			if err != nil {
				errs <- fmt.Errorf("spare %d join: %w", sp.Proc, err)
				return
			}
			if comm.Size() != grownSize {
				errs <- fmt.Errorf("spare %d joined size %d, want %d", sp.Proc, comm.Size(), grownSize)
				return
			}
			if comm.Rank() < 3 {
				errs <- fmt.Errorf("newcomer %d got rank %d, want >= 3", sp.Proc, comm.Rank())
				return
			}
			data := []float64{1}
			if err := mpi.Allreduce(comm, data, mpi.OpSum); err != nil {
				errs <- fmt.Errorf("spare %d allreduce: %w", sp.Proc, err)
				return
			}
			record(sp.Proc, data[0])
		}(sp)
	}

	outs := c.Run(func(w *clustertest.Worker) *clustertest.Outcome {
		for _, sp := range c.Spares {
			w.EP.Start(w.Proc, map[transport.ProcID]string{sp.Proc: sp.EP.Addr()})
		}
		grown, err := w.R.Comm().Grow(newProcs)
		if err != nil {
			return &clustertest.Outcome{Err: fmt.Errorf("grow: %w", err)}
		}
		if grown.Size() != grownSize {
			return &clustertest.Outcome{Err: fmt.Errorf("grown size %d, want %d", grown.Size(), grownSize)}
		}
		data := []float64{1}
		if err := mpi.Allreduce(grown, data, mpi.OpSum); err != nil {
			return &clustertest.Outcome{Err: fmt.Errorf("grown allreduce: %w", err)}
		}
		record(w.Proc, data[0])
		return &clustertest.Outcome{}
	})
	for _, o := range outs {
		if o.Err != nil {
			t.Errorf("rank %d: %v", o.Rank, o.Err)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if len(sums) != grownSize {
		t.Fatalf("%d participants finished, want %d", len(sums), grownSize)
	}
	for p, s := range sums {
		if s != grownSize {
			t.Errorf("proc %d sum = %v, want %d", p, s, grownSize)
		}
	}
}

func growOnLazyLoopback(t *testing.T) {
	const world, grownSize = 3, 5
	bufs0 := tcpnet.OutstandingFrameBufs()
	eps := make([]*tcpnet.Endpoint, grownSize)
	peers := make(map[transport.ProcID]string, grownSize)
	procs := make([]transport.ProcID, grownSize)
	for i := range eps {
		ep, err := tcpnet.Listen("127.0.0.1:0", tcpnet.Config{ZeroCopyMin: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		eps[i] = ep
		peers[transport.ProcID(i)] = ep.Addr()
		procs[i] = transport.ProcID(i)
	}
	for i, ep := range eps {
		ep.Start(transport.ProcID(i), peers)
	}

	sums := make([]float64, grownSize)
	errs := make([]error, grownSize)
	var wg sync.WaitGroup
	for i, ep := range eps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := mpi.Attach(ep)
			var comm *mpi.Comm
			var err error
			if i < world {
				if comm, err = mpi.World(p, procs[:world]); err == nil {
					comm, err = comm.Grow(procs[world:])
				}
			} else {
				comm, err = mpi.Join(p)
			}
			if err == nil && (comm.Size() != grownSize || comm.Rank() != i) {
				err = fmt.Errorf("proc %d in a comm of %d at rank %d", i, comm.Size(), comm.Rank())
			}
			data := []float64{1}
			if err == nil {
				err = mpi.Allreduce(comm, data, mpi.OpSum)
			}
			sums[i], errs[i] = data[0], err
		}()
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		for _, ep := range eps {
			ep.Close() // a failed Join strands the rest in the allreduce
		}
		<-finished
	}
	for i := range eps {
		if errs[i] != nil || sums[i] != grownSize {
			t.Errorf("proc %d: sum %v, err %v", i, sums[i], errs[i])
		}
	}
	for _, ep := range eps {
		ep.Close()
	}
	if !vtime.WaitUntil(5*time.Second, func() bool { return tcpnet.OutstandingFrameBufs() == bufs0 }) {
		t.Errorf("%d pooled frame buffers outstanding, %d before the run", tcpnet.OutstandingFrameBufs(), bufs0)
	}
}
