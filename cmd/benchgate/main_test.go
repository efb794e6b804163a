package main

import (
	"io"
	"strings"
	"testing"

	"repro/internal/controlplane"
)

// baseline loads the committed report; each call returns a fresh copy,
// so a test can perturb one side without touching the other.
func baseline(t *testing.T) *controlplane.Report {
	t.Helper()
	rep, err := load("../../BENCH_controlplane.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) == 0 {
		t.Fatal("committed baseline has no cells")
	}
	return rep
}

func TestGateIdenticalReportsPass(t *testing.T) {
	var out strings.Builder
	failures, compared := gate(&out, baseline(t), baseline(t), 0.10, 200)
	if failures != 0 || compared == 0 {
		t.Fatalf("failures=%d compared=%d, want 0 of >0:\n%s", failures, compared, out.String())
	}
	// Six rows per world: five diffs plus the decision ceiling.
	if want := 6 * len(baseline(t).Cells); compared != want {
		t.Fatalf("compared %d rows, want %d", compared, want)
	}
}

func TestGateKillDetectRegressionFails(t *testing.T) {
	fresh := baseline(t)
	fresh.Cells[0].KillDetectMS *= 1.20
	var out strings.Builder
	failures, _ := gate(&out, baseline(t), fresh, 0.10, 0)
	if failures != 1 || !strings.Contains(out.String(), "REGRESSION") {
		t.Fatalf("kill_detect_ms +20%% at tolerance 0.10: failures=%d, want 1:\n%s", failures, out.String())
	}
}

// Throughput gates downward: a slower state stream is the regression,
// a faster one is not.
func TestGateStateXferGatesDownward(t *testing.T) {
	slower := baseline(t)
	slower.Cells[0].StateXferMBps *= 0.80
	if failures, _ := gate(io.Discard, baseline(t), slower, 0.10, 0); failures != 1 {
		t.Fatalf("state_xfer_mbps -20%%: failures=%d, want 1", failures)
	}
	faster := baseline(t)
	faster.Cells[0].StateXferMBps *= 1.20
	if failures, _ := gate(io.Discard, baseline(t), faster, 0.10, 0); failures != 0 {
		t.Fatalf("state_xfer_mbps +20%%: failures=%d, want 0", failures)
	}
}

func TestGateDecisionCeiling(t *testing.T) {
	fresh := baseline(t)
	fresh.Cells[0].PolicyDecisionUS = 250
	var out strings.Builder
	failures, _ := gate(&out, baseline(t), fresh, 0.10, 200)
	if failures != 1 || !strings.Contains(out.String(), "ABOVE CEILING") {
		t.Fatalf("policy_decision_us 250 under a 200 ceiling: failures=%d, want 1:\n%s", failures, out.String())
	}
}

func TestGateNoCommonWorld(t *testing.T) {
	fresh := baseline(t)
	for i := range fresh.Cells {
		fresh.Cells[i].World += 1000
	}
	if _, compared := gate(io.Discard, baseline(t), fresh, 0.10, 200); compared != 0 {
		t.Fatalf("disjoint worlds compared %d rows, want 0", compared)
	}
}
