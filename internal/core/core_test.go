package core

import (
	"testing"

	"repro/internal/data"
	"repro/internal/failure"
	"repro/internal/horovod"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/nccl"
	"repro/internal/simnet"
	"repro/internal/train"
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

func realTrainCfg(workers, epochs int) train.Config {
	return train.Config{
		Mode:       train.Real,
		MLPSizes:   []int{8, 16, 4},
		Seed:       3,
		Dataset:    data.NewSynthetic(360, 8, 4, 7),
		BatchSize:  10,
		Epochs:     epochs,
		BaseLR:     0.05,
		Momentum:   0.9,
		RefWorkers: workers,
	}
}

func baseCfg(workers, epochs int) Config {
	return Config{
		Train:      realTrainCfg(workers, epochs),
		Horovod:    horovod.DefaultConfig(),
		Scenario:   ScenarioDown,
		DropPolicy: failure.KillProcess,
		Schedule:   failure.None(),
	}
}

func runJob(t *testing.T, cl *simnet.Cluster, cfg Config) *Result {
	t.Helper()
	j, err := NewJob(cl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := j.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func assertConsistentReplicas(t *testing.T, res *Result, want int) {
	t.Helper()
	if len(res.FinalHashes) != want {
		t.Fatalf("%d final replicas, want %d", len(res.FinalHashes), want)
	}
	var first uint64
	got := false
	for p, h := range res.FinalHashes {
		if !got {
			first, got = h, true
			continue
		}
		if h != first {
			t.Fatalf("replica divergence at proc %d: %v", p, res.FinalHashes)
		}
	}
}

func assertLossDecreases(t *testing.T, loss []float64) {
	t.Helper()
	if len(loss) < 2 {
		t.Fatalf("loss history too short: %v", loss)
	}
	if loss[len(loss)-1] >= loss[0] {
		t.Fatalf("loss did not decrease: %v", loss)
	}
}

// assertForwardRecoveryPhases checks a failure's critical path: every
// ULFM phase was timed, the agreement, shrink and retried exchange cost
// virtual time (revoke's flood is asynchronous, so it may read 0), and
// forward recovery recomputed nothing.
func assertForwardRecoveryPhases(t *testing.T, bd *metrics.Breakdown) {
	t.Helper()
	seen := map[metrics.Phase]bool{}
	for _, ph := range bd.Phases() {
		seen[ph] = true
	}
	for _, ph := range []metrics.Phase{metrics.PhaseDetect, metrics.PhaseRevoke, metrics.PhaseAgree, metrics.PhaseShrink, metrics.PhaseRetry} {
		if !seen[ph] {
			t.Fatalf("phase %s missing from %v", ph, bd)
		}
	}
	for _, ph := range []metrics.Phase{metrics.PhaseAgree, metrics.PhaseShrink, metrics.PhaseRetry} {
		if bd.Get(ph) <= 0 {
			t.Fatalf("phase %s took no time: %v", ph, bd)
		}
	}
	if seen[metrics.PhaseRecompute] {
		t.Fatalf("forward recovery must not recompute: %v", bd)
	}
}

func TestTrainsWithoutFailures(t *testing.T) {
	cl := testCluster(2, 3)
	res := runJob(t, cl, baseCfg(6, 4))
	if len(res.Events) != 0 {
		t.Fatalf("unexpected events: %v", res.Events)
	}
	if res.FinalSize != 6 {
		t.Fatalf("final size = %d", res.FinalSize)
	}
	assertConsistentReplicas(t, res, 6)
	assertLossDecreases(t, res.LossHistory)
}

func TestDownscaleProcessDrop(t *testing.T) {
	cl := testCluster(2, 3)
	cfg := baseCfg(6, 4)
	cfg.Scenario = ScenarioDown
	cfg.DropPolicy = failure.KillProcess
	cfg.Schedule = failure.At(1, 1, 4, failure.KillProcess)
	res := runJob(t, cl, cfg)

	if res.FinalSize != 5 {
		t.Fatalf("final size = %d, want 5 (process drop)", res.FinalSize)
	}
	assertConsistentReplicas(t, res, 5)
	assertLossDecreases(t, res.LossHistory)
	if len(res.Events) != 1 {
		t.Fatalf("events = %d, want 1", len(res.Events))
	}
	ev := res.Events[0]
	assertForwardRecoveryPhases(t, ev.Critical)
	// ULFM in-band detection is milliseconds, not a Gloo-style timeout.
	if d := ev.Critical.Get(metrics.PhaseDetect); d > 0.5 {
		t.Fatalf("ULFM detection took %v, want in-band (fast)", d)
	}
}

func TestDownscaleNodeDrop(t *testing.T) {
	cl := testCluster(2, 3)
	cfg := baseCfg(6, 4)
	cfg.DropPolicy = failure.KillNode
	cfg.Schedule = failure.At(1, 1, 4, failure.KillProcess) // process fails...
	res := runJob(t, cl, cfg)
	// ...but policy drops the whole node: 6 - 3 = 3 left.
	if res.FinalSize != 3 {
		t.Fatalf("final size = %d, want 3 (node drop policy)", res.FinalSize)
	}
	assertConsistentReplicas(t, res, 3)
}

func TestNodeFailureNodeDrop(t *testing.T) {
	cl := testCluster(3, 2)
	cfg := baseCfg(6, 4)
	cfg.DropPolicy = failure.KillNode
	cfg.Schedule = failure.At(1, 0, 3, failure.KillNode) // whole node dies
	res := runJob(t, cl, cfg)
	if res.FinalSize != 4 {
		t.Fatalf("final size = %d, want 4", res.FinalSize)
	}
	assertConsistentReplicas(t, res, 4)
}

func TestReplacementKeepsSize(t *testing.T) {
	cl := testCluster(2, 3)
	cfg := baseCfg(6, 5)
	cfg.Scenario = ScenarioSame
	cfg.DropPolicy = failure.KillProcess
	cfg.Schedule = failure.At(1, 1, 2, failure.KillProcess)
	res := runJob(t, cl, cfg)
	if res.FinalSize != 6 {
		t.Fatalf("final size = %d, want 6 (replacement)", res.FinalSize)
	}
	// 5 survivors + 1 replacement report final hashes.
	assertConsistentReplicas(t, res, 6)
	assertLossDecreases(t, res.LossHistory)
	if len(res.Events) != 1 {
		t.Fatalf("events = %d, want 1", len(res.Events))
	}
	ev := res.Events[0]
	if ev.Newcomer == nil {
		t.Fatal("replacement should report a newcomer breakdown")
	}
	if ev.Newcomer.Get(metrics.PhaseNewWorkerInit) <= 0 {
		t.Fatal("newcomer init cost missing")
	}
	if ev.Critical.Get(metrics.PhaseMerge)+ev.Newcomer.Get(metrics.PhaseMerge) <= 0 {
		t.Fatal("merge phase missing")
	}
}

func TestUpscaleDoubles(t *testing.T) {
	cl := testCluster(1, 4)
	cfg := baseCfg(4, 5)
	cfg.Scenario = ScenarioUp
	cfg.Schedule = failure.GrowAt(1, 1, 4)
	res := runJob(t, cl, cfg)
	if res.FinalSize != 8 {
		t.Fatalf("final size = %d, want 8 (doubled)", res.FinalSize)
	}
	assertConsistentReplicas(t, res, 8)
	if len(res.Events) != 1 {
		t.Fatalf("events = %d, want 1", len(res.Events))
	}
	// Graceful upscale: no failure-path phases at all.
	if res.Events[0].Critical.Get(metrics.PhaseDetect) != 0 {
		t.Fatal("upscale should not catch exceptions")
	}
	if res.Events[0].Critical.Get(metrics.PhaseShrink) != 0 {
		t.Fatal("upscale should not shrink")
	}
}

func TestUpscaleEventInFinalEpochDoesNotHang(t *testing.T) {
	cl := testCluster(1, 3)
	cfg := baseCfg(3, 2)
	cfg.Scenario = ScenarioUp
	cfg.Schedule = failure.GrowAt(1, 1, 3) // fires in the last epoch
	res := runJob(t, cl, cfg)
	if res.FinalSize != 6 {
		t.Fatalf("final size = %d, want 6", res.FinalSize)
	}
	assertConsistentReplicas(t, res, 6)
}

func TestVirtualModeWithGPU(t *testing.T) {
	cl := testCluster(4, 6)
	cfg := Config{
		Train: train.Config{
			Mode:       train.Virtual,
			Spec:       models.ResNet50V2,
			Epochs:     2,
			BaseLR:     0.1,
			RefWorkers: 12,
		},
		Horovod:    horovod.DefaultConfig(),
		UseGPU:     true,
		NCCL:       nccl.DefaultConfig(),
		Scenario:   ScenarioDown,
		DropPolicy: failure.KillProcess,
		Schedule:   failure.At(1, 1, 7, failure.KillProcess),
	}
	res := runJob(t, cl, cfg)
	if res.FinalSize != 23 {
		t.Fatalf("final size = %d, want 23", res.FinalSize)
	}
	if len(res.Events) != 1 {
		t.Fatalf("events = %d", len(res.Events))
	}
	ev := res.Events[0]
	if ev.Critical.Get(metrics.PhaseGPUReinit) <= 0 {
		t.Fatal("NCCL reinit cost missing after shrink")
	}
	if ev.Critical.Total() <= 0 {
		t.Fatal("empty breakdown")
	}
	if res.TotalTime <= 0 {
		t.Fatal("no virtual time elapsed")
	}
}

func TestRecoveryIsCheapComparedToEpoch(t *testing.T) {
	// The paper's core claim at the mechanism level: ULFM recovery cost is
	// a tiny fraction of an epoch of ResNet training.
	cl := testCluster(4, 6)
	cfg := Config{
		Train: train.Config{
			Mode:       train.Virtual,
			Spec:       models.ResNet50V2,
			Epochs:     2,
			BaseLR:     0.1,
			RefWorkers: 12,
		},
		Horovod:    horovod.DefaultConfig(),
		UseGPU:     true,
		NCCL:       nccl.DefaultConfig(),
		Scenario:   ScenarioDown,
		DropPolicy: failure.KillProcess,
		Schedule:   failure.At(0, 2, 5, failure.KillProcess),
	}
	res := runJob(t, cl, cfg)
	rec := res.Events[0].Critical
	// Communicator reconstruction only (not GPU reinit, which is common
	// to both stacks): revoke+agree+shrink+retry.
	reconstruct := rec.Get(metrics.PhaseRevoke) + rec.Get(metrics.PhaseAgree) + rec.Get(metrics.PhaseShrink)
	if reconstruct <= 0 {
		t.Fatal("no reconstruction cost recorded")
	}
	if reconstruct > 1.0 {
		t.Fatalf("ULFM reconstruction = %vs, expected sub-second", reconstruct)
	}
}
