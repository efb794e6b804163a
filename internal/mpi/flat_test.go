package mpi_test

import (
	"fmt"
	"testing"

	"repro/internal/mpi"
	"repro/internal/simnet"
	"repro/internal/transport/chaos"
	"repro/internal/ulfm"
)

// TestMailboxStaysFlatOnSimnet is tcpnet's
// TestLoopbackMailboxStaysFlat on the simulator: 3 000 resilient
// allreduces of 1 Ki float64 at world 4, and at steps 1 000, 2 000 and
// 3 000 — every rank held at a harness barrier, nothing in flight —
// every mailbox is empty. The parent's agreement parked two dead letters
// per step per member here too.
func TestMailboxStaysFlatOnSimnet(t *testing.T) {
	const (
		world = 4
		steps = 3000
		every = 1000
		elems = 1 << 10
	)
	c := simnet.New(simnet.Summit(1))
	procs := c.Procs()[:world]

	cp := chaos.NewCheckpoint(world)

	errs := simnet.RunAll(c, procs, func(rank int, ep *simnet.Endpoint) (err error) {
		defer func() {
			if err != nil {
				cp.Abort()
			}
		}()
		comm, err := mpi.World(mpi.Attach(ep), procs)
		if err != nil {
			return err
		}
		r := ulfm.New(comm, c, ulfm.DefaultPolicy())
		data := make([]float64, elems)
		for step := 1; step <= steps; step++ {
			for i := range data {
				data[i] = float64(rank + 1)
			}
			if err := ulfm.Allreduce(r, data, mpi.OpSum); err != nil {
				return fmt.Errorf("rank %d step %d: %w", rank, step, err)
			}
			if want := float64(1 + 2 + 3 + 4); data[0] != want || data[elems-1] != want {
				return fmt.Errorf("rank %d step %d: sum %v..%v, want %v", rank, step, data[0], data[elems-1], want)
			}
			if step%every != 0 {
				continue
			}
			if !cp.Wait() { // everyone is out of this step: nothing is in flight
				return nil
			}
			if n := ep.QueueLen(); n != 0 {
				return fmt.Errorf("rank %d: %d messages parked in the mailbox after step %d, want 0", rank, n, step)
			}
			if !cp.Wait() { // nobody starts the next step before every mailbox is read
				return nil
			}
		}
		return nil
	})
	if err := simnet.FirstError(errs); err != nil {
		t.Fatal(err)
	}
}
