package mpi

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/simnet"
)

func newTestCluster(nodes, ppn int) *simnet.Cluster {
	return simnet.New(simnet.Config{
		Nodes:              nodes,
		ProcsPerNode:       ppn,
		IntraNodeLatency:   1e-6,
		InterNodeLatency:   3e-6,
		IntraNodeBandwidth: 50e9,
		InterNodeBandwidth: 4e9,
		DetectLatency:      1e-3,
		SpawnDelay:         5,
	})
}

// TestCollectiveAbortsOnMidOperationFailure injects a failure while an
// allreduce is in flight: the victim never participates, and all
// survivors' operations must abort with a process-failure error instead of
// hanging — the property resilient collectives are built on.
func TestCollectiveAbortsOnMidOperationFailure(t *testing.T) {
	c := newTestCluster(2, 3)
	procs := c.Procs()
	const victim = 4
	var mu sync.Mutex
	failures := 0
	errs := simnet.RunAll(c, procs, func(rank int, ep *simnet.Endpoint) error {
		p := Attach(ep)
		comm, err := World(p, procs)
		if err != nil {
			return err
		}
		if rank == victim {
			c.Kill(ep.ID()) // dies without participating
			return nil
		}
		data := make([]float32, 50000)
		err = Allreduce(c2f(comm), data, OpSum)
		if err == nil {
			return fmt.Errorf("rank %d: allreduce succeeded despite failure", rank)
		}
		if !IsProcFailed(err) {
			return fmt.Errorf("rank %d: got %v, want ProcFailedError", rank, err)
		}
		mu.Lock()
		failures++
		mu.Unlock()
		return nil
	})
	if err := simnet.FirstError(errs); err != nil {
		if _, dead := simnet.IsPeerFailed(err); !dead {
			t.Fatal(err)
		}
	}
	if failures != 5 {
		t.Fatalf("%d survivors saw the failure, want 5", failures)
	}
}

func c2f(c *Comm) *Comm { return c }

// TestP2PUnaffectedByUnrelatedFailure checks ULFM's per-operation error
// semantics: point-to-point between live ranks keeps working on a
// communicator with failed (but unacknowledged) members.
func TestP2PUnaffectedByUnrelatedFailure(t *testing.T) {
	c := newTestCluster(1, 4)
	procs := c.Procs()
	errs := simnet.RunAll(c, procs, func(rank int, ep *simnet.Endpoint) error {
		p := Attach(ep)
		comm, err := World(p, procs)
		if err != nil {
			return err
		}
		switch rank {
		case 3:
			c.Kill(ep.ID())
			return nil
		case 0:
			return Send(comm, 1, 9, []int{42})
		case 1:
			v, err := Recv[int](comm, 0, 9)
			if err != nil {
				return fmt.Errorf("p2p between live ranks failed: %w", err)
			}
			if v[0] != 42 {
				return fmt.Errorf("got %v", v)
			}
			return nil
		}
		return nil
	})
	if err := simnet.FirstError(errs); err != nil {
		t.Fatal(err)
	}
}

// TestRecvFromFailedRankErrors: a posted receive against a rank that dies
// must abort with ProcFailedError.
func TestRecvFromFailedRankErrors(t *testing.T) {
	c := newTestCluster(1, 2)
	procs := c.Procs()
	errs := simnet.RunAll(c, procs, func(rank int, ep *simnet.Endpoint) error {
		p := Attach(ep)
		comm, err := World(p, procs)
		if err != nil {
			return err
		}
		if rank == 0 {
			c.Kill(ep.ID())
			return nil
		}
		_, err = Recv[int](comm, 0, 1)
		if !IsProcFailed(err) {
			return fmt.Errorf("got %v, want ProcFailedError", err)
		}
		return nil
	})
	if err := simnet.FirstError(errs); err != nil {
		t.Fatal(err)
	}
}

// TestRevokeInterruptsBlockedOperations: rank 1 blocks in a receive that
// would never complete; rank 0 revokes; rank 1 must abort with
// RevokedError even though no process failed.
func TestRevokeInterruptsBlockedOperations(t *testing.T) {
	c := newTestCluster(1, 3)
	procs := c.Procs()
	errs := simnet.RunAll(c, procs, func(rank int, ep *simnet.Endpoint) error {
		p := Attach(ep)
		comm, err := World(p, procs)
		if err != nil {
			return err
		}
		switch rank {
		case 0:
			comm.Revoke()
			if !comm.Revoked() {
				return fmt.Errorf("revoker does not see comm revoked")
			}
			return nil
		default:
			_, err = Recv[int](comm, 0, 1) // rank 0 never sends
			if !IsRevoked(err) {
				return fmt.Errorf("rank %d got %v, want RevokedError", rank, err)
			}
			if !comm.Revoked() {
				return fmt.Errorf("rank %d does not see comm revoked", rank)
			}
			return nil
		}
	})
	if err := simnet.FirstError(errs); err != nil {
		t.Fatal(err)
	}
}

// TestRevokePoisonsFutureCollectives: once revoked, new collectives on the
// communicator fail immediately.
func TestRevokePoisonsFutureCollectives(t *testing.T) {
	c := newTestCluster(1, 2)
	procs := c.Procs()
	errs := simnet.RunAll(c, procs, func(rank int, ep *simnet.Endpoint) error {
		p := Attach(ep)
		comm, err := World(p, procs)
		if err != nil {
			return err
		}
		comm.Revoke()
		if err := Allreduce(comm, []float64{1}, OpSum); !IsRevoked(err) {
			return fmt.Errorf("collective on revoked comm: %v, want RevokedError", err)
		}
		if err := Barrier(comm); !IsRevoked(err) {
			return fmt.Errorf("barrier on revoked comm: %v, want RevokedError", err)
		}
		return nil
	})
	if err := simnet.FirstError(errs); err != nil {
		t.Fatal(err)
	}
}

// TestAgreeUniformValue: all ranks must agree on the AND of contributions.
func TestAgreeUniformValue(t *testing.T) {
	c := newTestCluster(2, 3)
	procs := c.Procs()
	var mu sync.Mutex
	vals := map[int]uint32{}
	errs := simnet.RunAll(c, procs, func(rank int, ep *simnet.Endpoint) error {
		p := Attach(ep)
		comm, err := World(p, procs)
		if err != nil {
			return err
		}
		flags := uint32(0xFF)
		if rank == 3 {
			flags = 0xF0
		}
		v, err := comm.Agree(flags)
		if err != nil {
			return err
		}
		mu.Lock()
		vals[rank] = v
		mu.Unlock()
		return nil
	})
	if err := simnet.FirstError(errs); err != nil {
		t.Fatal(err)
	}
	for r, v := range vals {
		if v != 0xF0 {
			t.Fatalf("rank %d agreed on %#x, want 0xF0", r, v)
		}
	}
}

// TestAgreeSurvivesFailures kills ranks during the agreement (including
// the initial coordinator) and requires the survivors to return the same
// value.
func TestAgreeSurvivesFailures(t *testing.T) {
	for _, victims := range [][]int{{0}, {1}, {0, 1}, {2, 5}} {
		t.Run(fmt.Sprintf("victims%v", victims), func(t *testing.T) {
			c := newTestCluster(2, 3)
			procs := c.Procs()
			isVictim := map[int]bool{}
			for _, v := range victims {
				isVictim[v] = true
			}
			var mu sync.Mutex
			vals := map[int]uint32{}
			withErr := 0
			errs := simnet.RunAll(c, procs, func(rank int, ep *simnet.Endpoint) error {
				p := Attach(ep)
				comm, err := World(p, procs)
				if err != nil {
					return err
				}
				if isVictim[rank] {
					c.Kill(ep.ID())
					return nil
				}
				v, err := comm.Agree(1)
				if err != nil {
					if !IsProcFailed(err) {
						return err
					}
					// Unacked failure: value still uniform, error flagged.
					mu.Lock()
					withErr++
					mu.Unlock()
				}
				mu.Lock()
				vals[rank] = v
				mu.Unlock()
				return nil
			})
			if err := simnet.FirstError(errs); err != nil {
				t.Fatal(err)
			}
			if len(vals) != 6-len(victims) {
				t.Fatalf("%d survivors returned, want %d", len(vals), 6-len(victims))
			}
			var first uint32
			var got bool
			for _, v := range vals {
				if !got {
					first, got = v, true
					continue
				}
				if v != first {
					t.Fatalf("non-uniform agreement: %v", vals)
				}
			}
		})
	}
}

// TestAgreeAfterAckNoError: acknowledging failures first makes Agree
// return cleanly, per ULFM semantics.
func TestAgreeAfterAckNoError(t *testing.T) {
	c := newTestCluster(1, 3)
	procs := c.Procs()
	errs := simnet.RunAll(c, procs, func(rank int, ep *simnet.Endpoint) error {
		p := Attach(ep)
		comm, err := World(p, procs)
		if err != nil {
			return err
		}
		if rank == 2 {
			c.Kill(ep.ID())
			return nil
		}
		// Trip over the failure first.
		if err := Barrier(comm); err == nil {
			return fmt.Errorf("barrier should fail")
		}
		comm.FailureAck()
		if dead := comm.ProcOf(2); len(p.acked) != 1 || !p.acked[dead] {
			return fmt.Errorf("acked = %v, want proc %d", p.acked, dead)
		}
		if _, err := comm.Agree(1); err != nil {
			return fmt.Errorf("agree after ack: %v", err)
		}
		return nil
	})
	if err := simnet.FirstError(errs); err != nil {
		t.Fatal(err)
	}
}

// TestAgreeUniformError: the ProcFailedError side-channel must be as
// uniform as the agreed value. Rank 1 privately knows (and has acked) a
// failure the others have never heard of; the unacked bit the coordinator
// raises on first sight must reach every member through the decision, so
// either all six ranks report ProcFailedError or none do — a local acked
// lookup would split them, and on a scenario's last collective the clean
// members would exit and strand the erroring ones in a repair nobody
// joins.
//
// Rank 5's tree parent is rank 1, which holds it dead: rank 5 gets the
// decision only as rank 1's ward, or from rank 1's retained decision
// when its contribution arrives after rank 1 has decided. So every rank
// stays in the world, answering, until the last one is through — a rank
// that returned at once would strand a late rank 5 for ever.
func TestAgreeUniformError(t *testing.T) {
	c := newTestCluster(2, 3)
	procs := c.Procs()
	var mu sync.Mutex
	vals := map[int]uint32{}
	failedAt := map[int]bool{}
	var busy atomic.Int32 // ranks that may still need an answer
	busy.Store(int32(len(procs)))
	errs := simnet.RunAll(c, procs, func(rank int, ep *simnet.Endpoint) error {
		released := false
		release := func() {
			if !released {
				released = true
				busy.Add(-1)
			}
		}
		defer release()
		p := Attach(ep)
		comm, err := World(p, procs)
		if err != nil {
			return err
		}
		if rank == 1 {
			// Private, already-acknowledged failure knowledge about rank 5
			// (which is in fact alive and participating).
			p.noteFailure(procs[5])
			comm.FailureAck()
		}
		v, err := comm.Agree(1)
		if err != nil && !IsProcFailed(err) {
			return err
		}
		mu.Lock()
		vals[rank] = v
		failedAt[rank] = err != nil
		mu.Unlock()
		release()
		for busy.Load() > 0 { // gone on, and still there to be asked
			if err := p.Poll(); err != nil {
				break
			}
			runtime.Gosched()
		}
		return nil
	})
	if err := simnet.FirstError(errs); err != nil {
		t.Fatal(err)
	}
	for r, v := range vals {
		if v != vals[0] {
			t.Fatalf("rank %d agreed on %#x, others on %#x", r, v, vals[0])
		}
	}
	n := 0
	for _, f := range failedAt {
		if f {
			n++
		}
	}
	if n != 0 && n != len(failedAt) {
		t.Fatalf("ProcFailedError at %d of %d ranks; must be all or none: %v", n, len(failedAt), failedAt)
	}
	if n == 0 {
		t.Fatalf("expected the injected unacked failure to surface as a uniform ProcFailedError")
	}
}

// TestShrinkProducesWorkingComm: revoke + shrink after a failure, then run
// a full allreduce on the survivor communicator.
func TestShrinkProducesWorkingComm(t *testing.T) {
	c := newTestCluster(2, 3)
	procs := c.Procs()
	const victim = 2
	var mu sync.Mutex
	sums := map[int]float64{}
	ids := map[int]uint64{}
	errs := simnet.RunAll(c, procs, func(rank int, ep *simnet.Endpoint) error {
		p := Attach(ep)
		comm, err := World(p, procs)
		if err != nil {
			return err
		}
		if rank == victim {
			c.Kill(ep.ID())
			return nil
		}
		if err := Barrier(comm); err == nil {
			return fmt.Errorf("rank %d: barrier should fail", rank)
		}
		comm.Revoke()
		comm.FailureAck()
		newComm, err := comm.Shrink()
		if err != nil {
			return fmt.Errorf("rank %d shrink: %w", rank, err)
		}
		if newComm.Size() != 5 {
			return fmt.Errorf("rank %d: shrunk size %d, want 5", rank, newComm.Size())
		}
		if newComm.Revoked() {
			return fmt.Errorf("shrunk comm inherited revocation")
		}
		data := []float64{1}
		if err := Allreduce(newComm, data, OpSum); err != nil {
			return fmt.Errorf("rank %d allreduce on shrunk comm: %w", rank, err)
		}
		mu.Lock()
		sums[rank] = data[0]
		ids[rank] = newComm.ID()
		mu.Unlock()
		return nil
	})
	if err := simnet.FirstError(errs); err != nil {
		t.Fatal(err)
	}
	if len(sums) != 5 {
		t.Fatalf("%d survivors finished, want 5", len(sums))
	}
	var firstID uint64
	for r, s := range sums {
		if s != 5 {
			t.Fatalf("rank %d sum = %v, want 5", r, s)
		}
		if firstID == 0 {
			firstID = ids[r]
		} else if ids[r] != firstID {
			t.Fatalf("context ids diverged: %v", ids)
		}
	}
	if firstID == WorldID {
		t.Fatal("shrunk comm kept the world context id")
	}
}

// TestShrinkPreservesRankOrder: survivor ranks keep their relative order.
func TestShrinkPreservesRankOrder(t *testing.T) {
	c := newTestCluster(1, 5)
	procs := c.Procs()
	var mu sync.Mutex
	newRanks := map[int]int{}
	errs := simnet.RunAll(c, procs, func(rank int, ep *simnet.Endpoint) error {
		p := Attach(ep)
		comm, err := World(p, procs)
		if err != nil {
			return err
		}
		if rank == 1 {
			c.Kill(ep.ID())
			return nil
		}
		comm.Revoke()
		nc, err := comm.Shrink()
		if err != nil {
			return err
		}
		mu.Lock()
		newRanks[rank] = nc.Rank()
		mu.Unlock()
		return nil
	})
	if err := simnet.FirstError(errs); err != nil {
		t.Fatal(err)
	}
	want := map[int]int{0: 0, 2: 1, 3: 2, 4: 3}
	for old, nw := range want {
		if newRanks[old] != nw {
			t.Fatalf("old rank %d -> %d, want %d (all: %v)", old, newRanks[old], nw, newRanks)
		}
	}
}

// TestGrowAdmitsNewWorkers: spawn two processes and merge them into a new
// communicator; everyone then allreduces together.
func TestGrowAdmitsNewWorkers(t *testing.T) {
	c := newTestCluster(1, 3)
	orig := c.Procs()
	ep1, err := c.Spawn(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ep2, err := c.Spawn(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	newProcs := []simnet.ProcID{ep1.ID(), ep2.ID()}

	var mu sync.Mutex
	sums := map[simnet.ProcID]float64{}
	g := simnet.NewGroup()
	for i, id := range orig {
		rank := i
		g.Go(c.Endpoint(id), func(ep *simnet.Endpoint) error {
			p := Attach(ep)
			comm, err := World(p, orig)
			if err != nil {
				return err
			}
			_ = rank
			grown, err := comm.Grow(newProcs)
			if err != nil {
				return err
			}
			if grown.Size() != 5 {
				return fmt.Errorf("grown size = %d", grown.Size())
			}
			data := []float64{1}
			if err := Allreduce(grown, data, OpSum); err != nil {
				return err
			}
			mu.Lock()
			sums[ep.ID()] = data[0]
			mu.Unlock()
			return nil
		})
	}
	for _, ep := range []*simnet.Endpoint{ep1, ep2} {
		g.Go(ep, func(ep *simnet.Endpoint) error {
			p := Attach(ep)
			comm, err := Join(p)
			if err != nil {
				return err
			}
			if comm.Size() != 5 {
				return fmt.Errorf("joined size = %d", comm.Size())
			}
			if comm.Rank() < 3 {
				return fmt.Errorf("newcomer got rank %d, want >= 3", comm.Rank())
			}
			data := []float64{1}
			if err := Allreduce(comm, data, OpSum); err != nil {
				return err
			}
			mu.Lock()
			sums[ep.ID()] = data[0]
			mu.Unlock()
			return nil
		})
	}
	if err := simnet.FirstError(g.Wait()); err != nil {
		t.Fatal(err)
	}
	if len(sums) != 5 {
		t.Fatalf("%d participants finished, want 5", len(sums))
	}
	for id, s := range sums {
		if s != 5 {
			t.Fatalf("proc %d sum = %v, want 5", id, s)
		}
	}
}

// TestResilientAllreduceRetryPattern exercises the paper's core loop
// end-to-end at the MPI level: allreduce fails mid-flight, survivors
// revoke + ack + shrink, then repeat the allreduce with their own
// contributions, all without re-computing anything.
func TestResilientAllreduceRetryPattern(t *testing.T) {
	c := newTestCluster(2, 3)
	procs := c.Procs()
	const victim = 3
	var mu sync.Mutex
	results := map[int]float64{}
	errs := simnet.RunAll(c, procs, func(rank int, ep *simnet.Endpoint) error {
		p := Attach(ep)
		comm, err := World(p, procs)
		if err != nil {
			return err
		}
		grad := []float64{float64(rank + 1)} // this rank's contribution
		if rank == victim {
			c.Kill(ep.ID())
			return nil
		}
		work := append([]float64(nil), grad...)
		err = Allreduce(comm, work, OpSum)
		if err == nil {
			return fmt.Errorf("rank %d: expected the first allreduce to fail", rank)
		}
		if !IsFault(err) {
			return err
		}
		comm.Revoke()
		comm.FailureAck()
		shrunk, err := comm.Shrink()
		if err != nil {
			return err
		}
		// Retry with original contribution — forward recovery.
		work = append([]float64(nil), grad...)
		if err := Allreduce(shrunk, work, OpSum); err != nil {
			return err
		}
		mu.Lock()
		results[rank] = work[0]
		mu.Unlock()
		return nil
	})
	if err := simnet.FirstError(errs); err != nil {
		t.Fatal(err)
	}
	// Survivor ranks: 0,1,2,4,5 -> contributions 1+2+3+5+6 = 17.
	for r, v := range results {
		if v != 17 {
			t.Fatalf("rank %d retried allreduce = %v, want 17", r, v)
		}
	}
}

// TestNodeFailureShrink drops a whole node (paper's node-level policy).
func TestNodeFailureShrink(t *testing.T) {
	c := newTestCluster(4, 3)
	procs := c.Procs()
	var mu sync.Mutex
	sizes := map[int]int{}
	errs := simnet.RunAll(c, procs, func(rank int, ep *simnet.Endpoint) error {
		p := Attach(ep)
		comm, err := World(p, procs)
		if err != nil {
			return err
		}
		if ep.Node() == 1 {
			if rank%3 == 0 {
				if err := c.KillNodeOf(ep.ID()); err != nil {
					return err
				}
			}
			return nil
		}
		if err := Barrier(comm); err == nil {
			return fmt.Errorf("rank %d: barrier should fail", rank)
		}
		comm.Revoke()
		comm.FailureAck()
		shrunk, err := comm.Shrink()
		if err != nil {
			return err
		}
		mu.Lock()
		sizes[rank] = shrunk.Size()
		mu.Unlock()
		return nil
	})
	if err := simnet.FirstError(errs); err != nil {
		t.Fatal(err)
	}
	if len(sizes) != 9 {
		t.Fatalf("%d survivors shrank, want 9", len(sizes))
	}
	for r, s := range sizes {
		if s != 9 {
			t.Fatalf("rank %d shrunk to %d, want 9", r, s)
		}
	}
}
