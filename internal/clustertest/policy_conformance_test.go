package clustertest_test

// The recovery-policy conformance suite: every worker runs a policy
// engine in the ULFM advisor seat, costs are rigged so one strategy is
// clearly cheapest, and the scenarios assert the engine picks exactly
// that strategy — through the live decide/replicate/realize protocol,
// under the new chaos fault shapes (correlated node-kill groups, staged
// cascades, gray slow-node delay inflation) — while the harness's
// uniform-membership and bit-exact allreduce invariants keep holding.
//
// Reproduce a failing scenario with:
//
//	go test ./internal/clustertest -run 'TestPolicyConformance/<name>' \
//	    -cluster.world=<W> -cluster.seed=<N>

import (
	"testing"
	"time"

	"repro/internal/autopilot"
	"repro/internal/clustertest"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/transport"
	"repro/internal/transport/chaos"
)

// labeledCount reads one labeled child of a counter (or histogram)
// family: the sum of value/count over rows whose labels carry key=val.
func labeledCount(t *testing.T, family, key, val string) uint64 {
	t.Helper()
	rows, ok := obs.Default().Snapshot()[family].([]map[string]any)
	if !ok {
		t.Fatalf("metric family %q not registered", family)
	}
	var total uint64
	for _, r := range rows {
		labels, _ := r["labels"].(map[string]string)
		if labels[key] != val {
			continue
		}
		if v, ok := r["value"].(uint64); ok {
			total += v
		}
		if v, ok := r["count"].(uint64); ok {
			total += v
		}
	}
	return total
}

// metricSum totals a histogram family's sum fields across label sets.
func metricSum(t *testing.T, family string) float64 {
	t.Helper()
	rows, ok := obs.Default().Snapshot()[family].([]map[string]any)
	if !ok {
		t.Fatalf("metric family %q not registered", family)
	}
	var total float64
	for _, r := range rows {
		if v, ok := r["sum"].(float64); ok {
			total += v
		}
	}
	return total
}

// chose asserts the per-choice decision counter moved past its baseline.
func chose(t *testing.T, choice string, before uint64) {
	t.Helper()
	if got := labeledCount(t, "policy_decisions_total", "choice", choice); got <= before {
		t.Errorf("policy_decisions_total{choice=%q} did not move (still %d); the engine never picked the rigged-cheapest strategy", choice, got)
	}
}

func TestPolicyConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("integration suite")
	}
	world := *clusterWorld
	if world < 8 {
		t.Fatalf("-cluster.world=%d: the policy scenarios need at least 8 workers", world)
	}
	t.Logf("policy conformance world=%d seed=%d (reproduce with -cluster.world=%d -cluster.seed=%d)",
		world, *clusterSeed, world, *clusterSeed)

	bootPolicy := func(t *testing.T, pc *policy.Config, spares int, scale *autopilot.Config) *clustertest.Cluster {
		t.Helper()
		return clustertest.New(t, clustertest.Config{
			World:  world,
			Seed:   *clusterSeed,
			Spares: spares,
			Scale:  scale,
			Policy: pc,
		})
	}

	// Scenario P1: a single process drop with swap and rollback rigged
	// ruinously expensive selects process-drop shrink, and — because the
	// predicted shrink cost is rigged to ~zero — the realized cost of the
	// actual repair makes the regret histogram move. The whole metric
	// pipeline (decision counter, predicted+realized cost, regret) is
	// asserted here once.
	t.Run("picks_shrink_proc", func(t *testing.T) {
		d0 := labeledCount(t, "policy_decisions_total", "choice", "shrink_proc")
		c0 := metricCount(t, "policy_cost_seconds")
		r0 := metricCount(t, "policy_regret_seconds")
		rs0 := metricSum(t, "policy_regret_seconds")

		c := bootPolicy(t, &policy.Config{
			Baselines: policy.Baselines{
				ShrinkSeconds:    1e-6,
				XferSeconds:      500,
				RestoreSeconds:   500,
				RecomputeSeconds: 500,
			},
			// A vanishing horizon kills the capacity penalty, so predicted
			// ≈ 1e-6 s while any real repair takes milliseconds — realized
			// exceeds predicted and regret must be positive.
			Horizon:    1e-9,
			Spares:     func() int { return 1 },
			Checkpoint: func() (float64, bool) { return 5, true },
		}, 0, nil)
		outs := c.Run(clustertest.RoundsBody(mpi.AlgoAuto, 2, func(w *clustertest.Worker, round int) bool {
			if round == 1 && w.Rank == world-1 {
				//lint:ignore sleepytest chaos choreography: the stagger lets round-0 frames drain so the kill lands mid-round-1
				time.Sleep(50 * time.Millisecond)
				w.Die()
				return false
			}
			return true
		}))
		c.CheckOutcomes(outs, c.ProcsExcept(world-1))

		chose(t, "shrink_proc", d0)
		if got := metricCount(t, "policy_cost_seconds"); got < c0+2 {
			t.Errorf("policy_cost_seconds samples went %d -> %d, want both a predicted and a realized observation", c0, got)
		}
		if got := metricCount(t, "policy_regret_seconds"); got <= r0 {
			t.Errorf("policy_regret_seconds count did not move (still %d)", got)
		}
		if got := metricSum(t, "policy_regret_seconds"); got <= rs0 {
			t.Errorf("policy_regret_seconds sum did not move (%v -> %v): realized cost never exceeded the rigged ~zero prediction", rs0, got)
		}
		// A shrink verdict must also close the autopilot gate.
		if c.Workers[0].Pol.GateSwap(1) {
			t.Errorf("GateSwap approved a swap after a shrink_proc decision")
		}
	})

	// Scenario P2: a correlated node-level drop, injected as one
	// OpKillGroup felling three workers at the same instant — one whole
	// placement-pair plus one half of another, leaving a doomed live
	// node-mate. With the per-node shrink rigged expensive and the subset
	// step rigged cheap, the engine must classify node_drop and choose
	// shrink_node. The kill fires between rounds and every rank waits out
	// a detection window, so one repair sees the whole death set.
	t.Run("correlated_killgroup_shrink_node", func(t *testing.T) {
		d0 := labeledCount(t, "policy_decisions_total", "choice", "shrink_node")
		n0 := labeledCount(t, "policy_classifications_total", "class", "node_drop")

		c := bootPolicy(t, &policy.Config{
			// Two per node: ranks 2k and 2k+1 — in a gathered world with
			// no spares, procs 2k and 2k+1 — share node k.
			NodeOf: func(p transport.ProcID) (transport.NodeID, bool) { return transport.NodeID(p / 2), true },
			Baselines: policy.Baselines{
				ShrinkSeconds:    5,
				NodeExtraSeconds: 0.01,
			},
		}, 0, nil)
		group := c.ProcsOfRanks(world-3, world-2, world-1)
		c.Eng.AddRule(chaos.Rule{
			Name: "nodekill", Proc: c.Workers[0].Proc, Point: transport.PointElasticRound,
			Op: chaos.OpKillGroup, Nth: 1, Disabled: true,
			Groups: [][]transport.ProcID{group},
		})
		for _, r := range []int{world - 3, world - 2, world - 1} {
			w := c.Workers[r]
			c.Eng.OnKill(w.Proc, w.Die)
		}
		outs := c.Run(clustertest.RoundsBody(mpi.AlgoAuto, 2, func(w *clustertest.Worker, round int) bool {
			if round == 1 {
				if w.Rank == 0 {
					c.Eng.Enable("nodekill")
					transport.Hit(w.Proc, transport.PointElasticRound)
				}
				//lint:ignore sleepytest chaos choreography: every rank waits out the detection window so all three verdicts land before round 1 and one repair absorbs the whole group
				time.Sleep(c.DetectWait())
			}
			return true
		}))
		c.CheckOutcomes(outs, c.ProcsExcept(world-1, world-2, world-3))

		chose(t, "shrink_node", d0)
		if got := labeledCount(t, "policy_classifications_total", "class", "node_drop"); got <= n0 {
			t.Errorf("policy_classifications_total{class=node_drop} did not move (still %d)", got)
		}
	})

	// Scenario P3: a staged cascade (OpCascade: one kill now, a second a
	// detection window later) with a cheap checkpoint rigged in. The
	// first repair is an ordinary proc drop; the second verdict lands
	// inside the cascade window, forward shrink is charged for the burst,
	// and rollback must win. The armed rollback flag must surface through
	// TakeRollback on every survivor.
	t.Run("cascade_picks_rollback", func(t *testing.T) {
		d0 := labeledCount(t, "policy_decisions_total", "choice", "rollback")
		k0 := labeledCount(t, "policy_classifications_total", "class", "cascade")

		c := bootPolicy(t, &policy.Config{
			// A wide window keeps the classification deterministic on a
			// loaded CI box: the second verdict is a cascade no matter how
			// slowly the first repair grinds.
			CascadeWindow: 300,
			Baselines: policy.Baselines{
				ShrinkSeconds:    2,
				RestoreSeconds:   0.01,
				RecomputeSeconds: 0.01,
			},
			Checkpoint: func() (float64, bool) { return 1, true },
		}, 0, nil)
		stageA, stageB := c.Workers[world-1], c.Workers[world-2]
		c.Eng.AddRule(chaos.Rule{
			Name: "storm", Proc: c.Workers[0].Proc, Point: transport.PointElasticRound,
			Op: chaos.OpCascade, Nth: 1, Disabled: true,
			Delay:  c.DetectWait() + 2*time.Second,
			Groups: [][]transport.ProcID{{stageA.Proc}, {stageB.Proc}},
		})
		c.Eng.OnKill(stageA.Proc, stageA.Die)
		c.Eng.OnKill(stageB.Proc, stageB.Die)
		outs := c.Run(clustertest.RoundsBody(mpi.AlgoAuto, 4, func(w *clustertest.Worker, round int) bool {
			switch round {
			case 1:
				if w.Rank == 0 {
					c.Eng.Enable("storm")
					transport.Hit(w.Proc, transport.PointElasticRound)
				}
				//lint:ignore sleepytest chaos choreography: wait out stage A's detection so round 1 repairs exactly the first death
				time.Sleep(c.DetectWait())
			case 3:
				//lint:ignore sleepytest chaos choreography: stage B dies a window after the trigger; waiting one more window plus slack guarantees its verdict has landed before the last round
				time.Sleep(c.DetectWait() + 3*time.Second)
			}
			return true
		}))
		c.CheckOutcomes(outs, c.ProcsExcept(world-1, world-2))

		chose(t, "rollback", d0)
		if got := labeledCount(t, "policy_classifications_total", "class", "cascade"); got <= k0 {
			t.Errorf("policy_classifications_total{class=cascade} did not move (still %d)", got)
		}
		rolled := 0
		for _, w := range c.Workers {
			if w.Killed.Load() {
				continue
			}
			if w.R.TakeRollback() {
				rolled++
			}
		}
		if rolled != world-2 {
			t.Errorf("TakeRollback armed on %d survivors, want all %d (the rollback advice must replicate uniformly)", rolled, world-2)
		}
	})

	// Scenario P4: with a warm spare, cheap state transfer, and a real
	// autopilot in the loop, the engine must pick spare_swap, the gate
	// must approve the controller's swap-in, and the world must return to
	// full size with the bit-exact sum over the swapped membership.
	t.Run("picks_spare_swap_and_gate_approves", func(t *testing.T) {
		d0 := labeledCount(t, "policy_decisions_total", "choice", "spare_swap")
		swaps0 := metricCount(t, "autopilot_spare_swaps_total")

		c := bootPolicy(t, &policy.Config{
			Baselines: policy.Baselines{
				ShrinkSeconds: 1,
				XferSeconds:   0.01,
			},
			Spares: func() int { return 1 },
		}, 1, &autopilot.Config{})
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
		c.CheckOutcomes(outs, want)

		chose(t, "spare_swap", d0)
		if got := metricCount(t, "autopilot_spare_swaps_total"); got <= swaps0 {
			t.Errorf("autopilot_spare_swaps_total did not move (still %d): the gated swap never happened", got)
		}
		if !c.Workers[0].Pol.GateSwap(1) {
			t.Errorf("GateSwap rejected a swap after a spare_swap decision")
		}
	})

	// Scenario P5: the converse gate test — a warm spare is available but
	// the rigged costs favor shrink, so the policy vetoes the
	// controller's reflexive swap: the world stays shrunken, the pool
	// stays full, and the veto counter moves.
	t.Run("shrink_vetoes_swap", func(t *testing.T) {
		v0 := metricCount(t, "autopilot_swap_vetoes_total")

		c := bootPolicy(t, &policy.Config{
			Baselines: policy.Baselines{
				ShrinkSeconds: 1e-6,
				XferSeconds:   500,
			},
			Horizon: 1e-9,
			Spares:  func() int { return 1 },
		}, 1, &autopilot.Config{})
		outs := c.RunGrow(4, mpi.AllreduceOptions{Algo: mpi.AlgoAuto}, demoStateBytes, func(w *clustertest.Worker, round int) bool {
			if round == 1 && w.Rank == world-1 {
				//lint:ignore sleepytest chaos choreography: the stagger lets round-0 frames drain so the kill lands mid-round-1
				time.Sleep(50 * time.Millisecond)
				w.Die()
				return false
			}
			return true
		})
		c.CheckOutcomes(outs, c.ProcsExcept(world-1))

		if got := metricCount(t, "autopilot_swap_vetoes_total"); got <= v0 {
			t.Errorf("autopilot_swap_vetoes_total did not move (still %d): the shrink verdict never vetoed the swap", got)
		}
		if pool := c.Workers[0].Ctl.Pool(); len(pool) != 1 {
			t.Errorf("pool drained to %v under a vetoed swap, want the spare held", pool)
		}
	})

	// Scenario P6: a gray slow node — OpSlow inflates one worker's data
	// sends per match. The rounds must stay correct (delays are capped,
	// nobody dies), the injected per-round lag measured from the chaos
	// journal feeds the engine, and the gray verdict must name exactly
	// the rigged straggler; acting on it (a clean leave) recovers to the
	// shrunken world.
	t.Run("gray_straggler_evicted", func(t *testing.T) {
		g0 := metricCount(t, "policy_gray_evictions_total")

		c := bootPolicy(t, &policy.Config{
			GrayLagMin: 0.001,
		}, 0, nil)
		victim := c.Workers[world-1]
		slow := chaos.DataRule("gray", chaos.OpSlow)
		slow.Proc = victim.Proc
		slow.Delay = 2 * time.Millisecond
		slow.Inflate = 0.5
		slow.MaxDelay = 20 * time.Millisecond
		c.Eng.AddRule(slow)

		const rounds = 2
		outs := c.Run(clustertest.RoundsBody(mpi.AlgoPipelinedRing, rounds, nil))
		c.CheckOutcomes(outs, c.Procs())
		c.CheckEveryRound(outs, c.Procs())

		// Measure the injected straggle from the chaos journal: the Nth
		// match waited Delay·(1+Inflate·(N−1)) capped at MaxDelay.
		var total time.Duration
		matches := 0
		for _, ev := range c.Eng.Events() {
			if ev.Rule != "gray" {
				continue
			}
			matches++
			d := time.Duration(float64(slow.Delay) * (1 + slow.Inflate*float64(ev.Seq-1)))
			if d > slow.MaxDelay {
				d = slow.MaxDelay
			}
			total += d
		}
		if matches == 0 {
			t.Fatalf("no OpSlow verdicts fired; the gray shape never touched the data plane:\n%s", c.Eng)
		}
		lag := total.Seconds() / rounds
		eng := c.Workers[0].Pol
		for i := 0; i < 4; i++ {
			eng.ObserveGray(float64(100+i), victim.Proc, lag)
		}
		proc, d, ok := eng.GrayVerdict(110, world)
		if !ok {
			t.Fatalf("GrayVerdict declined to evict a straggler lagging %.3fs per round", lag)
		}
		if proc != victim.Proc {
			t.Fatalf("GrayVerdict evicted proc %d, want the rigged straggler %d", proc, victim.Proc)
		}
		if d.Class != policy.ClassGray || d.Strategy != policy.StrategyShrinkProc {
			t.Errorf("gray decision = %v/%v, want gray/shrink_proc", d.Class, d.Strategy)
		}
		if got := metricCount(t, "policy_gray_evictions_total"); got <= g0 {
			t.Errorf("policy_gray_evictions_total did not move (still %d)", got)
		}

		// Act on the verdict: a clean leave, then recovery to the
		// shrunken world with the bit-exact survivors-only sum.
		c.Eng.Disable("gray")
		victim.Leave()
		c.VerifyRecovery(world - 1)
	})
}
