package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestSmokeEpisode plays one real kill against a world of 3 elasticd
// processes (about 20 steps at -n 64) and holds it to the oracle. It
// skips when the daemon cannot be built, so the unit tests above still
// run on a machine without the rest of the tree.
func TestSmokeEpisode(t *testing.T) {
	if testing.Short() {
		t.Skip("launches real processes")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "elasticd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/elasticd")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Skipf("cannot build cmd/elasticd: %v\n%s", err, out)
	}
	scratch := filepath.Join(dir, "run")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		t.Fatal(err)
	}
	e := &env{elasticd: bin, scratch: scratch}
	cfg := worldCfg{size: 3, n: 64, codec: "raw", algo: "ring", traced: true}
	ep := runEpisode(e, cfg, killPlan{killAfter: 10, victim: 1})
	if ep.failed != 0 || len(ep.problems) != 0 {
		t.Fatalf("oracle: %d of %d steps failed: %v", ep.failed, ep.attempted, ep.problems)
	}
	if want := 3*20 - postKillSteps; ep.attempted != want {
		t.Errorf("attempted %d step lines, want %d", ep.attempted, want)
	}
	if ep.recoveryS <= 0 || ep.recoveryS != ep.restoreS {
		t.Errorf("recovery %v restore %v: want equal and positive without a spare", ep.recoveryS, ep.restoreS)
	}
	if ep.goodput <= 0 || ep.setupS <= 0 || ep.cpuS <= 0 || len(ep.rssMB) != 2 {
		t.Errorf("unmeasured: %+v", ep)
	}
	// The traced terms must chain from the kill to the first good step.
	l := ep.layers
	if ok, gap := sumCheck(ep.recoveryS*1e3, 0.05, l["rendezvous.detect_ms"], l["ulfm.verdict_to_reconfigured_ms"], l["elasticd.retry_ms"]); !ok {
		t.Errorf("recovery terms miss the total by %+.1f%%: %v", gap*100, l)
	}
	if l["ulfm.phase_agree_ms"] <= 0 {
		t.Errorf("journal recovery record not read: %v", l)
	}
	live.Lock()
	left := len(live.pgids)
	live.Unlock()
	if left != 0 {
		t.Errorf("%d process groups still registered after the episode", left)
	}
}
