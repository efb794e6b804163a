package ulfm

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/transport"
)

// Grow admits newcomers into the communicator at an epoch boundary —
// the paper's forward scale-up: spares or fresh workers are merged and
// start contributing at epoch i+1. Collective over the current
// communicator: every member calls it each boundary; rank 0's candidate
// list is authoritative and is replicated to the others through two
// resilient broadcasts (count, then proc list), so non-roots simply
// pass nil. An empty decision costs one small broadcast, which keeps
// per-epoch participation cheap.
//
// Failures interleaved with the decision broadcasts are handled by
// skipping the boundary: if a repair reshapes the communicator while
// the decision is in flight, the authoritative rank 0 may have changed
// and the half-replicated list is void, so every survivor uniformly
// returns no admissions and the controller retries at the next
// boundary. A newcomer dying mid-welcome is tolerated by mpi.Grow
// itself (the dead newcomer is noted and repaired out by the next
// collective).
//
// On success the grown communicator replaces r's current one and the
// admitted list is returned; the caller streams state to the newcomers
// (autopilot.SendState) before the next collective touches them.
func (r *ResilientComm) Grow(newProcs []transport.ProcID) ([]transport.ProcID, error) {
	before := r.comm

	count := []int64{0}
	if r.comm.Rank() == 0 {
		count[0] = int64(len(newProcs))
	}
	if err := r.Do(func() error { return mpi.Bcast(r.comm, count, 0) }); err != nil {
		return nil, fmt.Errorf("ulfm: grow decision bcast: %w", err)
	}
	if r.comm != before || count[0] == 0 {
		return nil, nil // repaired mid-decision, or nothing to admit
	}

	list := make([]int64, count[0])
	if r.comm.Rank() == 0 {
		for i, p := range newProcs[:count[0]] {
			list[i] = int64(p)
		}
	}
	if err := r.Do(func() error { return mpi.Bcast(r.comm, list, 0) }); err != nil {
		return nil, fmt.Errorf("ulfm: grow list bcast: %w", err)
	}
	if r.comm != before {
		return nil, nil
	}

	admit := make([]transport.ProcID, len(list))
	for i, p := range list {
		admit[i] = transport.ProcID(p)
	}
	grown, err := r.comm.Grow(admit)
	if err != nil {
		return nil, fmt.Errorf("ulfm: grow: %w", err)
	}
	r.comm = grown
	return admit, nil
}
