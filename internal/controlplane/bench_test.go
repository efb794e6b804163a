package controlplane

import (
	"encoding/json"
	"testing"
)

// smallCfg keeps unit runs fast: two worlds, two seeds.
func smallCfg() Config {
	return Config{Worlds: []int{8, 16}, Seeds: []int64{1, 2}}
}

func TestCollectDeterministic(t *testing.T) {
	a, err := Collect(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Collect(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	// The decision-latency row is the report's one wall-clock number
	// (gated by an absolute ceiling, not a diff); everything else must
	// reproduce bit-for-bit.
	for i := range a.Cells {
		a.Cells[i].PolicyDecisionUS = 0
	}
	for i := range b.Cells {
		b.Cells[i].PolicyDecisionUS = 0
	}
	ja, _ := a.JSON()
	jb, _ := b.JSON()
	if string(ja) != string(jb) {
		t.Fatalf("virtual-time measurement not reproducible:\n%s\nvs\n%s", ja, jb)
	}
}

func TestPolicyRowsShape(t *testing.T) {
	if us := measurePolicyDecisionUS(16); us <= 0 {
		t.Fatalf("decision latency %v us, want positive", us)
	}
	// The regret row must be a deterministic nonzero residual: zero
	// would mean the EWMA tracked a moving target exactly (impossible),
	// and benchgate's relative diff against a zero baseline is undefined.
	r1, r2 := measurePolicyRegretPct(16), measurePolicyRegretPct(16)
	if r1 != r2 {
		t.Fatalf("regret not reproducible: %v vs %v", r1, r2)
	}
	if r1 <= 0 || r1 >= 100 {
		t.Fatalf("regret %v%%, want a small positive steady-state residual", r1)
	}
}

func TestCollectShape(t *testing.T) {
	rep, err := Collect(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(rep.Cells))
	}
	for _, c := range rep.Cells {
		if c.JoinConvergeMS <= 0 || c.KillDetectMS <= 0 {
			t.Fatalf("world %d: non-positive latency: %+v", c.World, c)
		}
		if c.JoinRounds <= 0 || c.KillRounds <= 0 {
			t.Fatalf("world %d: non-positive rounds: %+v", c.World, c)
		}
		// A kill costs at least the suspicion window on top of the
		// dissemination a join needs; the ordering is structural.
		if c.KillDetectMS <= c.JoinConvergeMS {
			t.Fatalf("world %d: kill detection (%.1fms) not slower than join convergence (%.1fms)",
				c.World, c.KillDetectMS, c.JoinConvergeMS)
		}
	}
	blob, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
	if len(back.Cells) != len(rep.Cells) {
		t.Fatalf("round-trip lost cells")
	}
}

func TestCollectDefaults(t *testing.T) {
	// The zero config fills in the CI sweep; just check it does not
	// error and covers the advertised worlds.
	rep, err := Collect(Config{Worlds: []int{4}, Seeds: []int64{7}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Period == "" || rep.DropProb == 0 {
		t.Fatalf("defaults not applied: %+v", rep)
	}
}
