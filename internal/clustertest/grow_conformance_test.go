package clustertest_test

// The grow-path conformance suite: four elasticity scenarios run
// through the clustertest harness at the flag-selected world, driving
// the full stack — the hub's death declarations, each node's own autopilot
// controller (the seat is rank 0 of the current communicator), spare
// activation through the rendezvous hub, resilient Grow broadcasts, and
// the bandwidth-capped newcomer state stream.
// Every scenario asserts the invariants the harness already enforces
// for the shrink suite: uniform membership at every survivor, a
// bit-identical final allreduce, and (at teardown) zero leaked
// goroutines or pooled frame buffers.
//
// Reproduce a failing scenario with:
//
//	go test ./internal/clustertest -run 'TestGrowConformance/<name>' \
//	    -cluster.world=<W> -cluster.seed=<N>

import (
	"testing"
	"time"

	"repro/internal/autopilot"
	"repro/internal/clustertest"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/transport/chaos"
)

// demoStateBytes is the model blob every scenario streams: 1 MiB is four
// chunks under the harness's 64 MiB/s token bucket — enough to land
// mid-stream kills, fast enough not to stall the suite.
const demoStateBytes = 1 << 20

// metricCount sums a family's counter values (or histogram counts)
// across all label sets, so scenarios can diff before/after.
func metricCount(t *testing.T, name string) uint64 {
	t.Helper()
	rows, ok := obs.Default().Snapshot()[name].([]map[string]any)
	if !ok {
		t.Fatalf("metric family %q not registered", name)
	}
	var total uint64
	for _, r := range rows {
		if v, ok := r["value"].(uint64); ok {
			total += v
		}
		if v, ok := r["count"].(uint64); ok {
			total += v
		}
	}
	return total
}

func mustSchedule(t *testing.T, s string) []autopilot.ScheduleStep {
	t.Helper()
	sch, err := autopilot.ParseSchedule(s)
	if err != nil {
		t.Fatal(err)
	}
	return sch
}

func TestGrowConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("integration suite")
	}
	world := *clusterWorld
	if world < 4 {
		t.Fatalf("-cluster.world=%d: the scenarios need at least 4 workers", world)
	}
	t.Logf("grow conformance world=%d seed=%d (reproduce with -cluster.world=%d -cluster.seed=%d)",
		world, *clusterSeed, world, *clusterSeed)

	bootSpares := func(t *testing.T, spares int, scale *autopilot.Config) *clustertest.Cluster {
		t.Helper()
		return clustertest.New(t, clustertest.Config{
			World:  world,
			Seed:   *clusterSeed,
			Spares: spares,
			Scale:  scale,
		})
	}

	// Scenario G1 (the acceptance demo): kill -9 of a worker recovers by
	// spare-swap, not shrink. The verdict lands mid-training, the next
	// boundary swaps the first spare in, membership returns to exactly
	// `world` members, and the retried allreduce is bit-identical to the
	// failure-free sum over the new membership. The swap and
	// state-transfer metrics must move.
	t.Run("spare_swap_on_kill", func(t *testing.T) {
		swaps0 := metricCount(t, "autopilot_spare_swaps_total")
		xfers0 := metricCount(t, "autopilot_state_transfer_seconds")
		recov0 := metricCount(t, "autopilot_spare_swap_recovery_seconds")

		c := bootSpares(t, 2, &autopilot.Config{})
		outs := c.RunGrow(4, mpi.AllreduceOptions{Algo: mpi.AlgoAuto}, demoStateBytes, func(w *clustertest.Worker, round int) bool {
			if round == 1 && w.Rank == world-1 {
				//lint:ignore sleepytest chaos choreography: the stagger lets round-0 frames drain so the kill lands mid-round-1
				time.Sleep(50 * time.Millisecond)
				w.Die()
				return false
			}
			return true
		})
		want := append(c.ProcsExcept(world-1), c.Spares[0].Proc)
		if len(want) != world {
			t.Fatalf("swap accounting: want-world %d, expected %d", len(want), world)
		}
		c.CheckOutcomes(outs, want)

		if got := metricCount(t, "autopilot_spare_swaps_total"); got <= swaps0 {
			t.Errorf("autopilot_spare_swaps_total did not move (still %d)", got)
		}
		if got := metricCount(t, "autopilot_state_transfer_seconds"); got <= xfers0 {
			t.Errorf("state-transfer histogram did not move (still %d)", got)
		}
		if got := metricCount(t, "autopilot_spare_swap_recovery_seconds"); got <= recov0 {
			t.Errorf("swap-recovery histogram did not move (still %d)", got)
		}
	})

	// Scenario G2: scheduled scale-up mid-training. Nobody dies; the
	// schedule fires at boundary 1 and both spares enter at the next
	// epoch with the streamed state, growing the world by two.
	t.Run("scale_up_mid_training", func(t *testing.T) {
		c := bootSpares(t, 2, &autopilot.Config{Schedule: mustSchedule(t, "1:+2")})
		outs := c.RunGrow(4, mpi.AllreduceOptions{Algo: mpi.AlgoAuto}, demoStateBytes, nil)
		want := append(c.Procs(), c.Spares[0].Proc, c.Spares[1].Proc)
		c.CheckOutcomes(outs, want)
	})

	// Scenario G3: the first spare is killed while receiving the state
	// stream. The sender books a failed swap, the grown communicator is
	// repaired straight back (the corpse was never live in it), and the
	// next boundary swaps in the second spare instead. The pool must end
	// empty: one spare burned, one serving.
	t.Run("kill_during_state_transfer", func(t *testing.T) {
		fails0 := metricCount(t, "autopilot_swap_failures_total")

		c := bootSpares(t, 2, &autopilot.Config{})
		spareA := c.Spares[0]
		c.Eng.AddRule(chaos.Rule{
			Name: "killxfer", Proc: spareA.Proc, Point: transport.PointStateRecv,
			Nth: 1, Op: chaos.OpKill,
		})
		c.Eng.OnKill(spareA.Proc, spareA.Die)
		outs := c.RunGrow(5, mpi.AllreduceOptions{Algo: mpi.AlgoAuto}, demoStateBytes, func(w *clustertest.Worker, round int) bool {
			if round == 1 && w.Rank == world-1 {
				//lint:ignore sleepytest chaos choreography: the stagger lets round-0 frames drain so the kill lands mid-round-1
				time.Sleep(50 * time.Millisecond)
				w.Die()
				return false
			}
			return true
		})
		want := append(c.ProcsExcept(world-1), c.Spares[1].Proc)
		c.CheckOutcomes(outs, want)

		if !spareA.Killed.Load() {
			t.Errorf("spare %d was never killed at %q", spareA.Proc, transport.PointStateRecv)
		}
		if got := metricCount(t, "autopilot_swap_failures_total"); got <= fails0 {
			t.Errorf("autopilot_swap_failures_total did not move (still %d)", got)
		}
		// Rank 0 held the seat throughout: the victim was the last rank.
		if pool := c.Workers[0].Ctl.Pool(); len(pool) != 0 {
			t.Errorf("pool not drained after burn+swap: %v", pool)
		}
	})

	// Scenario G4: flapping autoscale — up one, down one, up one. The
	// first spare enters at boundary 1 and is evicted (clean leave, no
	// detection window) at boundary 2; the second enters at boundary 3.
	// The controller must not book the eviction as a death, and the
	// final world is the original plus only the second spare.
	t.Run("flap_autoscale", func(t *testing.T) {
		c := bootSpares(t, 2, &autopilot.Config{Schedule: mustSchedule(t, "1:+1,2:-1,3:+1")})
		outs := c.RunGrow(6, mpi.AllreduceOptions{Algo: mpi.AlgoAuto}, demoStateBytes, nil)
		want := append(c.Procs(), c.Spares[1].Proc)
		c.CheckOutcomes(outs, want)
	})
}
