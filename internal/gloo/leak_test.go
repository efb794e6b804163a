package gloo

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/simnet"
	"repro/internal/vtime"
)

// TestRendezvousLeavesNoGoroutine: a rendezvous that completes while its
// cancel channel stays open must not leave the goroutine that merges the
// cancel with the endpoint's done channel parked behind it.
func TestRendezvousLeavesNoGoroutine(t *testing.T) {
	c, kv := newCluster(1, 4)
	cancel := make(chan struct{})
	defer close(cancel)
	base := runtime.NumGoroutine()
	procs := c.LiveProcs()
	errs := simnet.RunAll(c, procs, func(rank int, ep *simnet.Endpoint) error {
		ctx, err := ConnectCancel(ep, kv, DefaultConfig(), 1, rank, len(procs), cancel)
		if err != nil {
			return err
		}
		ctx.Close()
		return nil
	})
	if err := simnet.FirstError(errs); err != nil {
		t.Fatal(err)
	}
	if !vtime.WaitUntil(2*time.Second, func() bool { return runtime.NumGoroutine() <= base }) {
		t.Fatalf("%d goroutines after %d completed rendezvous, %d before", runtime.NumGoroutine(), len(procs), base)
	}
}
