package elastic

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/simnet"
	"repro/internal/vtime"
)

// TestBarrierLeavesNoGoroutine: a barrier that completes while its cancel
// channel stays open must not leave the goroutine that merges the cancel
// with the endpoint's done channel parked behind it.
func TestBarrierLeavesNoGoroutine(t *testing.T) {
	cl, kv := testCluster(1, 4)
	j := &Job{kv: kv}
	cancel := make(chan struct{})
	defer close(cancel)
	base := runtime.NumGoroutine()
	procs := cl.LiveProcs()
	errs := simnet.RunAll(cl, procs, func(rank int, ep *simnet.Endpoint) error {
		return j.barrierCancel(ep, "rdv/test", int64(len(procs)), cancel)
	})
	if err := simnet.FirstError(errs); err != nil {
		t.Fatal(err)
	}
	if !vtime.WaitUntil(2*time.Second, func() bool { return runtime.NumGoroutine() <= base }) {
		t.Fatalf("%d goroutines after %d completed barriers, %d before", runtime.NumGoroutine(), len(procs), base)
	}
}
