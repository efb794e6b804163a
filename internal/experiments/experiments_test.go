package experiments

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/failure"
	"repro/internal/metrics"
	"repro/internal/models"
)

func TestTable1MatchesPaper(t *testing.T) {
	tab := Table1()
	out := tab.String()
	for _, want := range []string{"VGG-16", "143.7M", "549", "ResNet50V2", "25.6M", "98", "NasNetMobile", "5.3M", "23"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table 1 missing %q:\n%s", want, out)
		}
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("Table 1 rows = %d", len(tab.Rows))
	}
}

func TestTable2MatchesPaper(t *testing.T) {
	tab, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][2]string{
		"Recovery by process":    {"no", "yes"},
		"Recovery by node":       {"yes", "yes"},
		"Autoscaling by process": {"no", "yes"},
		"Autoscaling by node":    {"yes", "yes"},
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("Table 2 rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		w, ok := want[row[0]]
		if !ok {
			t.Fatalf("unexpected row %q", row[0])
		}
		if row[1] != w[0] || row[2] != w[1] {
			t.Fatalf("row %q = (%s, %s), want (%s, %s) — capability matrix deviates from the paper",
				row[0], row[1], row[2], w[0], w[1])
		}
	}
}

func TestRunDownscaleBothStacks(t *testing.T) {
	eh, err := Run(DefaultSetup(models.NasNetMobile, 12, "down", StackElasticHorovod, failure.KillProcess))
	if err != nil {
		t.Fatal(err)
	}
	ul, err := Run(DefaultSetup(models.NasNetMobile, 12, "down", StackULFM, failure.KillProcess))
	if err != nil {
		t.Fatal(err)
	}
	// EH loses the whole node (12-6=6); ULFM just the process (11).
	if eh.FinalSize != 6 {
		t.Fatalf("EH final = %d, want 6", eh.FinalSize)
	}
	if ul.FinalSize != 11 {
		t.Fatalf("ULFM final = %d, want 11", ul.FinalSize)
	}
	// The paper's headline: ULFM reconstruction beats Gloo re-rendezvous.
	if !(ul.Reconstruct < eh.Reconstruct) {
		t.Fatalf("ULFM reconstruct %.3f should beat EH %.3f", ul.Reconstruct, eh.Reconstruct)
	}
	// Forward recovery: no recompute for ULFM, some for EH.
	if ul.Recompute != 0 {
		t.Fatalf("ULFM recompute = %v, want 0", ul.Recompute)
	}
	if eh.Recompute <= 0 {
		t.Fatal("EH should pay recompute")
	}
}

func TestRunReplacementNewcomerCosts(t *testing.T) {
	ul, err := Run(DefaultSetup(models.NasNetMobile, 12, "same", StackULFM, failure.KillProcess))
	if err != nil {
		t.Fatal(err)
	}
	if ul.FinalSize != 12 {
		t.Fatalf("ULFM same final = %d, want 12", ul.FinalSize)
	}
	if ul.Newcomer == nil || ul.Newcomer.Get(metrics.PhaseNewWorkerInit) <= 0 {
		t.Fatal("newcomer costs missing")
	}
	if ul.StateInit <= 0 {
		t.Fatal("state-init segment empty for replacement")
	}
}

func TestRunUpscale(t *testing.T) {
	eh, err := Run(DefaultSetup(models.NasNetMobile, 12, "up", StackElasticHorovod, failure.KillNode))
	if err != nil {
		t.Fatal(err)
	}
	if eh.FinalSize != 24 {
		t.Fatalf("EH up final = %d, want 24", eh.FinalSize)
	}
	ul, err := Run(DefaultSetup(models.NasNetMobile, 12, "up", StackULFM, failure.KillNode))
	if err != nil {
		t.Fatal(err)
	}
	if ul.FinalSize != 24 {
		t.Fatalf("ULFM up final = %d, want 24", ul.FinalSize)
	}
	// EH pays a full re-rendezvous to grow; ULFM merges at the boundary.
	if !(ul.Reconstruct < eh.Reconstruct) {
		t.Fatalf("ULFM up reconstruct %.3f should beat EH %.3f", ul.Reconstruct, eh.Reconstruct)
	}
}

func TestGapWidensWithScale(t *testing.T) {
	gap := func(gpus int) float64 {
		eh, err := Run(DefaultSetup(models.NasNetMobile, gpus, "down", StackElasticHorovod, failure.KillNode))
		if err != nil {
			t.Fatal(err)
		}
		ul, err := Run(DefaultSetup(models.NasNetMobile, gpus, "down", StackULFM, failure.KillNode))
		if err != nil {
			t.Fatal(err)
		}
		return eh.Reconstruct - ul.Reconstruct
	}
	small := gap(12)
	big := gap(48)
	if !(big > small) {
		t.Fatalf("advantage should grow with scale: 12 GPUs %.3f vs 48 GPUs %.3f", small, big)
	}
}

func TestFigure4Breakdown(t *testing.T) {
	tab, err := Figure4()
	if err != nil {
		t.Fatal(err)
	}
	out := tab.String()
	for _, want := range []string{"catch-exception", "reinit-gloo", "revoke", "shrink", "TOTAL", "final GPUs"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Figure 4 missing %q:\n%s", want, out)
		}
	}
	// Final sizes: EH drops the node in both cases (18); ULFM drops 1
	// process (23) or the node (18).
	if !strings.Contains(out, "18") || !strings.Contains(out, "23") {
		t.Fatalf("Figure 4 final sizes wrong:\n%s", out)
	}
	// The ULFM columns are deterministic virtual time: pin them. The EH
	// columns are not (their rendezvous phases jitter with scheduling),
	// so they are only bounded from below by the ULFM totals.
	row := func(name string) []string {
		for _, r := range tab.Rows {
			if r[0] == name {
				return r[1:]
			}
		}
		t.Fatalf("Figure 4 has no %q row:\n%s", name, out)
		return nil
	}
	total := map[string]float64{}
	for i, cell := range row("TOTAL") {
		v, err := strconv.ParseFloat(cell, 64)
		if err != nil {
			t.Fatalf("TOTAL cell %q: %v", cell, err)
		}
		total[tab.Headers[i+1]] = v
	}
	final := row("final GPUs")
	for i, want := range []struct {
		total float64
		gpus  string
	}{{0.5758, "23"}, {0.5171, "18"}} {
		col := tab.Headers[3+i]
		if got := total[col]; math.Abs(got-want.total) > 0.002 {
			t.Errorf("%s TOTAL = %.4f, want %.4f ± 0.002", col, got, want.total)
		}
		if final[2+i] != want.gpus {
			t.Errorf("%s final GPUs = %s, want %s", col, final[2+i], want.gpus)
		}
		for _, eh := range tab.Headers[1:3] {
			if !(total[col] < total[eh]) {
				t.Errorf("%s TOTAL %.4f is not below %s TOTAL %.4f", col, total[col], eh, total[eh])
			}
		}
	}
}

func TestFigure2Granularity(t *testing.T) {
	tab, err := Figure2()
	if err != nil {
		t.Fatal(err)
	}
	out := tab.String()
	if !strings.Contains(out, "single collective") || !strings.Contains(out, "minibatches since checkpoint") {
		t.Fatalf("Figure 2 table malformed:\n%s", out)
	}
}

func TestSweepFigureSmall(t *testing.T) {
	f, err := SweepFigure(models.NasNetMobile, []int{12, 24})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.X) != 2 {
		t.Fatalf("X = %v", f.X)
	}
	// Every scenario must report the EH and ULFM node series.
	for _, scen := range Scenarios() {
		eh := f.Get(scen+"/EH/node", 24)
		ul := f.Get(scen+"/ULFM/node", 24)
		if eh <= 0 || ul <= 0 {
			t.Fatalf("scenario %s missing data: eh=%v ul=%v", scen, eh, ul)
		}
		if !(ul < eh) {
			t.Fatalf("scenario %s: ULFM (%.3f) should beat EH (%.3f)", scen, ul, eh)
		}
	}
}

func TestSweepSegments(t *testing.T) {
	f, err := SweepSegments(models.NasNetMobile, "down", []int{12})
	if err != nil {
		t.Fatal(err)
	}
	if f.Get("EH/node/recompute", 12) <= 0 {
		t.Fatal("EH recompute segment missing")
	}
	if f.Get("ULFM/process/recompute", 12) != 0 {
		t.Fatal("ULFM should not recompute")
	}
	if f.Get("ULFM/process/reconstruct", 12) <= 0 {
		t.Fatal("ULFM reconstruct segment missing")
	}
}

func TestEq1Table(t *testing.T) {
	tab, err := Eq1Table()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("Eq1 rows = %d", len(tab.Rows))
	}
	out := tab.String()
	if !strings.Contains(out, "saves/epoch") {
		t.Fatalf("Eq1 table malformed:\n%s", out)
	}
}
