package core

import (
	"testing"

	"repro/internal/failure"
)

// TestTwoFailuresAcrossEpochs injects two process failures in different
// epochs; the job must recover twice and stay consistent.
func TestTwoFailuresAcrossEpochs(t *testing.T) {
	cl := testCluster(2, 4)
	cfg := baseCfg(8, 6)
	cfg.Schedule = &failure.Schedule{Events: []failure.Event{
		{Epoch: 1, Step: 1, Type: failure.Fail, Rank: 6, Kind: failure.KillProcess},
		{Epoch: 3, Step: 2, Type: failure.Fail, Rank: 2, Kind: failure.KillProcess},
	}}
	res := runJob(t, cl, cfg)
	if res.FinalSize != 6 {
		t.Fatalf("final size = %d, want 6 after two process drops", res.FinalSize)
	}
	assertConsistentReplicas(t, res, 6)
	assertLossDecreases(t, res.LossHistory)
	if len(res.Events) != 2 {
		t.Fatalf("events = %d, want 2", len(res.Events))
	}
	for _, ev := range res.Events {
		assertForwardRecoveryPhases(t, ev.Critical)
	}
}

// TestFailureThenReplacementThenFailure mixes scenarios: a replacement
// recovery followed by another failure hitting a different original rank.
func TestReplacementThenFailure(t *testing.T) {
	cl := testCluster(2, 4)
	cfg := baseCfg(8, 7)
	cfg.Scenario = ScenarioSame
	cfg.Schedule = &failure.Schedule{Events: []failure.Event{
		{Epoch: 1, Step: 1, Type: failure.Fail, Rank: 5, Kind: failure.KillProcess},
		{Epoch: 4, Step: 1, Type: failure.Fail, Rank: 1, Kind: failure.KillProcess},
	}}
	res := runJob(t, cl, cfg)
	// Both failures replaced: size stays 8.
	if res.FinalSize != 8 {
		t.Fatalf("final size = %d, want 8", res.FinalSize)
	}
	assertConsistentReplicas(t, res, 8)
	if len(res.Events) != 2 {
		t.Fatalf("events = %d, want 2", len(res.Events))
	}
}

// TestFailureAndUpscale drops a worker, then doubles the survivors.
func TestFailureAndUpscale(t *testing.T) {
	cl := testCluster(2, 3)
	cfg := baseCfg(6, 7)
	cfg.Scenario = ScenarioUp
	cfg.Schedule = &failure.Schedule{Events: []failure.Event{
		{Epoch: 1, Step: 1, Type: failure.Fail, Rank: 4, Kind: failure.KillProcess},
		{Epoch: 3, Step: 1, Type: failure.Grow, Add: 5},
	}}
	res := runJob(t, cl, cfg)
	// 6 -> 5 after the drop, +5 at the upscale = 10.
	if res.FinalSize != 10 {
		t.Fatalf("final size = %d, want 10", res.FinalSize)
	}
	assertConsistentReplicas(t, res, 10)
	assertLossDecreases(t, res.LossHistory)
}

// TestManySequentialFailures drops one worker per epoch for three epochs.
func TestManySequentialFailures(t *testing.T) {
	cl := testCluster(2, 4)
	cfg := baseCfg(8, 6)
	cfg.Schedule = &failure.Schedule{Events: []failure.Event{
		{Epoch: 1, Step: 1, Type: failure.Fail, Rank: 7, Kind: failure.KillProcess},
		{Epoch: 2, Step: 1, Type: failure.Fail, Rank: 6, Kind: failure.KillProcess},
		{Epoch: 3, Step: 1, Type: failure.Fail, Rank: 5, Kind: failure.KillProcess},
	}}
	res := runJob(t, cl, cfg)
	if res.FinalSize != 5 {
		t.Fatalf("final size = %d, want 5", res.FinalSize)
	}
	assertConsistentReplicas(t, res, 5)
	if len(res.Events) != 3 {
		t.Fatalf("events = %d, want 3", len(res.Events))
	}
}
