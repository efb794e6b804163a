package clustertest_test

// The ULFM recovery conformance suite, re-run through the clustertest
// harness against the hub detector elasticd ships. The scenarios are the
// same nine the chaos package pins at world 4; here the world size is a
// flag (32 by default, 64/128 in nightly CI). A killed worker is
// convicted on the close of its control connection, a hung one by the
// heartbeat sweep, and the harness teardown asserts the hub convicted
// nobody else.
//
// Reproduce a failing scenario with:
//
//	go test ./internal/clustertest -run 'TestClusterConformance/<name>' \
//	    -cluster.world=<W> -cluster.seed=<N>

import (
	"flag"
	"os"
	"testing"
	"time"

	"repro/internal/autopilot"
	"repro/internal/clustertest"
	"repro/internal/mpi"
	"repro/internal/transport"
	"repro/internal/transport/chaos"
)

var (
	clusterWorld = flag.Int("cluster.world", 32, "world size for the cluster conformance scenarios")
	clusterSeed  = flag.Int64("cluster.seed", 1, "seed for the cluster conformance scenarios")
)

func TestMain(m *testing.M) {
	// World 128 holds more sockets than the common 1024-fd default.
	clustertest.RaiseFDLimit()
	os.Exit(m.Run())
}

// boot builds the cluster for one scenario at the flag-selected world.
func boot(t *testing.T, rules ...chaos.Rule) *clustertest.Cluster {
	t.Helper()
	return clustertest.New(t, clustertest.Config{
		World: *clusterWorld,
		Seed:  *clusterSeed,
		Rules: rules,
	})
}

func TestClusterConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("integration suite")
	}
	world := *clusterWorld
	if world < 4 {
		t.Fatalf("-cluster.world=%d: the scenarios need at least 4 workers", world)
	}
	t.Logf("cluster conformance world=%d seed=%d (reproduce with -cluster.world=%d -cluster.seed=%d)",
		world, *clusterSeed, world, *clusterSeed)

	// Scenario 1: a worker is killed mid-chunk inside the pipelined ring
	// — its partial chunks are already in the survivors' pooled receive
	// buffers when recovery runs.
	t.Run("kill_mid_chunk", func(t *testing.T) {
		c := boot(t)
		victim := c.Workers[world-1]
		c.Eng.AddRule(chaos.Rule{
			Name: "killchunk", Proc: victim.Proc, Point: transport.PointPipelineRSChunk,
			Nth: 5, Op: chaos.OpKill, Disabled: true,
		})
		c.Eng.OnKill(victim.Proc, victim.Die)
		outs := c.Run(clustertest.RoundsBody(mpi.AlgoPipelinedRing, 2, func(w *clustertest.Worker, round int) bool {
			if round == 1 && w.Rank == world-1 {
				c.Eng.Enable("killchunk") // armed after the clean round
			}
			return true
		}))
		c.CheckOutcomes(outs, c.ProcsExcept(world-1))
	})

	// Scenario 1b: the same mid-chunk kill with fp16 gradient compression
	// on the wire. The victim's stale frames in the survivors' pooled
	// buffers now hold binary16 payloads; the retry over the shrunken
	// world must still land the bit-exact survivors-only sum at every
	// rank — proving the shrink renegotiates the compressed collective
	// uniformly and stale compressed chunks never leak into it. The
	// proc+1 contributions and all partial sums are integers, exact in
	// binary16 while the full sum stays at or under 2048 (world <= 63).
	t.Run("kill_mid_compressed", func(t *testing.T) {
		if sum := world * (world + 1) / 2; sum > 2048 {
			t.Skipf("world %d: full sum %d exceeds the binary16 exact-integer range; the bit-exact check needs world <= 63", world, sum)
		}
		c := boot(t)
		victim := c.Workers[world-1]
		c.Eng.AddRule(chaos.Rule{
			Name: "killcomp", Proc: victim.Proc, Point: transport.PointPipelineRSChunk,
			Nth: 5, Op: chaos.OpKill, Disabled: true,
		})
		c.Eng.OnKill(victim.Proc, victim.Die)
		opts := mpi.AllreduceOptions{Algo: mpi.AlgoPipelinedRing, Codec: mpi.CodecFP16}
		outs := c.Run(clustertest.RoundsBodyOpts(opts, 2, func(w *clustertest.Worker, round int) bool {
			if round == 1 && w.Rank == world-1 {
				c.Eng.Enable("killcomp") // armed after the clean round
			}
			return true
		}))
		c.CheckOutcomes(outs, c.ProcsExcept(world-1))
	})

	// Scenario 1c: the compressed kill lands inside the allgather. Every
	// survivor holds the binary16 chunks it received one step earlier, to
	// forward them as received, when the victim's death aborts the step:
	// the aborted collective must release each held frame exactly once
	// (the harness teardown counts pooled buffers), and the retry must
	// still land the bit-exact survivors-only sum at every rank.
	t.Run("kill_mid_compressed_ag", func(t *testing.T) {
		if sum := world * (world + 1) / 2; sum > 2048 {
			t.Skipf("world %d: full sum %d exceeds the binary16 exact-integer range; the bit-exact check needs world <= 63", world, sum)
		}
		c := boot(t)
		victim := c.Workers[world-1]
		c.Eng.AddRule(chaos.Rule{
			Name: "killcomp_ag", Proc: victim.Proc, Point: transport.PointPipelineAGChunk,
			Nth: 5, Op: chaos.OpKill, Disabled: true,
		})
		c.Eng.OnKill(victim.Proc, victim.Die)
		opts := mpi.AllreduceOptions{Algo: mpi.AlgoPipelinedRing, Codec: mpi.CodecFP16}
		outs := c.Run(clustertest.RoundsBodyOpts(opts, 2, func(w *clustertest.Worker, round int) bool {
			if round == 1 && w.Rank == world-1 {
				c.Eng.Enable("killcomp_ag") // armed after the clean round
			}
			return true
		}))
		c.CheckOutcomes(outs, c.ProcsExcept(world-1))
	})

	// Scenario 2: node kill — two co-located workers die at once, so one
	// repair must absorb a multi-process failure event.
	t.Run("kill_node", func(t *testing.T) {
		c := boot(t)
		outs := c.Run(clustertest.RoundsBody(mpi.AlgoAuto, 2, func(w *clustertest.Worker, round int) bool {
			if round == 1 && (w.Rank == world-1 || w.Rank == world-2) {
				//lint:ignore sleepytest chaos choreography: the stagger lets round-0 frames drain so the kill lands mid-round-1, the case under test
				time.Sleep(50 * time.Millisecond)
				w.Die()
				return false
			}
			return true
		}))
		c.CheckOutcomes(outs, c.ProcsExcept(world-1, world-2))
	})

	// Scenario 3: network partition — the victim's data plane is
	// isolated by the engine and its heartbeats stop with its hub
	// connection still open, so only the hub's sweep can declare it.
	t.Run("partition", func(t *testing.T) {
		c := boot(t)
		c.Eng.AddRule(chaos.Rule{
			Name: "split", Op: chaos.OpPartition, Disabled: true,
			Groups: [][]transport.ProcID{
				c.ProcsExcept(world - 1),
				c.ProcsOfRanks(world - 1),
			},
		})
		outs := c.Run(clustertest.RoundsBody(mpi.AlgoPipelinedRing, 2, func(w *clustertest.Worker, round int) bool {
			if round == 1 && w.Rank == world-1 {
				//lint:ignore sleepytest chaos choreography: stagger so the partition cuts mid-round, not between rounds
				time.Sleep(50 * time.Millisecond)
				c.Eng.Enable("split")
				w.Mute() // silence, not a close: only the sweep reveals the isolation
				//lint:ignore sleepytest the victim must stay isolated for a full detection window; the absence of its acks IS the scenario
				time.Sleep(c.DetectWait())
				return false
			}
			return true
		}))
		c.CheckOutcomes(outs, c.ProcsExcept(world-1))
	})

	// Scenario 4: mid-frame connection reset — frames are cut partway
	// through, receivers see truncated bodies, senders redial and
	// resend. Nobody dies; recovery must be invisible.
	t.Run("midframe_reset", func(t *testing.T) {
		c := boot(t)
		c.Eng.AddRule(chaos.Rule{
			Name: "cut", Proc: c.Workers[1].Proc, Op: chaos.OpReset, Nth: 3, Times: 0, CutAfter: 9,
		})
		c.Eng.AddRule(chaos.Rule{
			Name: "cut2", Proc: c.Workers[2].Proc, Op: chaos.OpReset, Nth: 8, Times: 0, CutAfter: 40,
		})
		outs := c.Run(clustertest.RoundsBody(mpi.AlgoPipelinedRing, 3, nil))
		c.CheckOutcomes(outs, c.Procs())
		c.CheckEveryRound(outs, c.Procs())
		resets := 0
		for _, ev := range c.Eng.Events() {
			if ev.Op == chaos.OpReset {
				resets++
			}
		}
		if resets == 0 {
			t.Errorf("no mid-frame reset fired; scenario did not exercise the truncation path:\n%s", c.Eng)
		}
	})

	// Scenario 5: delay-induced timeout — the victim's data plane goes
	// silent (frames dropped, endpoint alive, TCP connections healthy)
	// and its heartbeats stop, so survivors block until the hub's sweep
	// declares it and MarkDead aborts their receives.
	t.Run("stall_timeout", func(t *testing.T) {
		c := boot(t)
		black := chaos.DataRule("blackhole", chaos.OpDrop)
		black.Proc = c.Workers[world-1].Proc
		black.Disabled = true
		c.Eng.AddRule(black)
		outs := c.Run(clustertest.RoundsBody(mpi.AlgoAuto, 2, func(w *clustertest.Worker, round int) bool {
			if round == 1 && w.Rank == world-1 {
				//lint:ignore sleepytest chaos choreography: stagger so the blackhole opens mid-round
				time.Sleep(50 * time.Millisecond)
				c.Eng.Enable("blackhole")
				w.Mute() // hung process: no heartbeats, endpoint still open
				// Attempt the round anyway: every frame this worker sends
				// vanishes, so survivors experience pure silence. Unblock
				// it by closing the endpoint once recovery has surely run.
				done := make(chan struct{})
				go func() {
					defer close(done)
					w.Allreduce(mpi.AlgoAuto)
				}()
				//lint:ignore sleepytest the victim's allreduce must spin into pure silence long enough for survivors to declare it; there is no survivor-side state this goroutine can poll
				time.Sleep(c.DetectWait())
				w.EP.Close()
				<-done
				return false
			}
			return true
		}))
		c.CheckOutcomes(outs, c.ProcsExcept(world-1))
	})

	// Scenario 6: duplicate delivery — a third of all data frames are
	// delivered twice; recursive doubling must absorb them harmlessly.
	t.Run("duplicate", func(t *testing.T) {
		dup := chaos.DataRule("dup", chaos.OpDup)
		dup.Prob = 0.35
		c := boot(t, dup)
		outs := c.Run(clustertest.RoundsBody(mpi.AlgoRecursiveDoubling, 3, nil))
		c.CheckOutcomes(outs, c.Procs())
		c.CheckEveryRound(outs, c.Procs())
	})

	// Scenario 7: reordered delivery — a quarter of all data frames are
	// held back and released later, permuting cross-peer send order.
	// Per-(source, tag) FIFO is preserved, which is all recursive
	// doubling requires.
	t.Run("reorder", func(t *testing.T) {
		hold := chaos.DataRule("hold", chaos.OpHold)
		hold.Prob = 0.25
		c := boot(t, hold)
		outs := c.Run(clustertest.RoundsBody(mpi.AlgoRecursiveDoubling, 3, func(w *clustertest.Worker, round int) bool {
			// Stop capturing before the last round: a hold taken on the
			// very last message of the run would have no later traffic to
			// release it, stranding its receiver.
			if round == 2 && w.Rank == 0 {
				c.Eng.Disable("hold")
			}
			return true
		}))
		c.CheckOutcomes(outs, c.Procs())
	})

	// Scenario 8: kill during repair — while the survivors are repairing
	// the first death, a second worker is killed between its revoke and
	// its agreement. The repair-of-the-repair must still converge.
	t.Run("kill_during_repair", func(t *testing.T) {
		c := boot(t)
		second := c.Workers[world-2]
		c.Eng.AddRule(chaos.Rule{
			Name: "kill2", Proc: second.Proc, Point: transport.PointUlfmRevoked,
			Nth: 1, Op: chaos.OpKill,
		})
		c.Eng.OnKill(second.Proc, second.Die)
		outs := c.Run(clustertest.RoundsBody(mpi.AlgoPipelinedRing, 2, func(w *clustertest.Worker, round int) bool {
			if round == 1 && w.Rank == world-1 {
				//lint:ignore sleepytest chaos choreography: the first death must land mid-round so the point-gated second kill fires during its repair
				time.Sleep(50 * time.Millisecond)
				w.Die()
				return false
			}
			return true
		}))
		c.CheckOutcomes(outs, c.ProcsExcept(world-1, world-2))
	})

	// Scenario 9: kill during rejoin — a scheduled scale-up admits a warm
	// spare at the first boundary, and the spare is killed the instant
	// the seat has sent it the join message. The grown communicator
	// contains a member that was never alive in it (its state stream is
	// a burned swap); the next collective must repair straight back to
	// the original world.
	t.Run("kill_during_rejoin", func(t *testing.T) {
		c := clustertest.New(t, clustertest.Config{
			World:  world,
			Seed:   *clusterSeed,
			Spares: 1,
			Scale:  &autopilot.Config{Schedule: []autopilot.ScheduleStep{{Step: 0, Delta: 1}}},
		})
		joiner := c.Spares[0]
		c.Eng.AddRule(chaos.Rule{
			Name: "killjoin", Proc: c.Workers[0].Proc, Point: transport.PointGrowSend,
			Nth: 1, Op: chaos.OpKillGroup, Groups: [][]transport.ProcID{{joiner.Proc}},
		})
		c.Eng.OnKill(joiner.Proc, joiner.Die)
		outs := c.RunGrow(2, mpi.AllreduceOptions{Algo: mpi.AlgoAuto}, 1<<10, nil)
		c.CheckOutcomes(outs, c.Procs())
		if !joiner.Killed.Load() {
			t.Errorf("joiner was never killed at %q", transport.PointGrowSend)
		}
	})
}
