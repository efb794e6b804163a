package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

func linesOf(proc int, specs ...[3]float64) []stepRec {
	var out []stepRec
	for _, s := range specs {
		out = append(out, stepRec{t: time.Unix(0, 0), stepLine: stepLine{step: int(s[0]), proc: proc, size: int(s[1]), sum: s[2]}})
	}
	return out
}

func TestMembershipOracle(t *testing.T) {
	// Procs 0..3 gathered (sum 10), proc 3 dies after 9 steps, spare is proc 4.
	shrink := membershipOracle(4, 10, 3, -1, 9, false)
	swap := membershipOracle(4, 10, 3, 4, 9, true)
	for _, c := range []struct {
		f    func(int) expectation
		step int
		want expectation
	}{
		{shrink, 8, expectation{4, 10}},
		{shrink, 9, expectation{3, 6}},
		{shrink, 18, expectation{3, 6}},
		{swap, 8, expectation{4, 10}},
		{swap, 9, expectation{3, 6}},
		{swap, 10, expectation{4, 11}},
	} {
		if got := c.f(c.step); got != c.want {
			t.Errorf("step %d: %+v, want %+v", c.step, got, c.want)
		}
	}
}

func TestCheckLines(t *testing.T) {
	want := membershipOracle(4, 10, 3, -1, 2, false)
	good := &worker{name: "w1", proc: 1, steps: linesOf(1, [3]float64{0, 4, 10}, [3]float64{1, 4, 10}, [3]float64{2, 3, 6})}
	var v verdict
	checkLines(&v, good, 0, 3, want)
	if v.attempted != 3 || v.failed != 0 {
		t.Fatalf("clean worker: %+v", v)
	}
	for name, w := range map[string]*worker{
		"stale sum after the shrink": {name: "w", proc: 1, steps: linesOf(1, [3]float64{0, 4, 10}, [3]float64{1, 4, 10}, [3]float64{2, 3, 10})},
		"skipped step":               {name: "w", proc: 1, steps: linesOf(1, [3]float64{0, 4, 10}, [3]float64{2, 3, 6}, [3]float64{3, 3, 6})},
		"missing line":               {name: "w", proc: 1, steps: linesOf(1, [3]float64{0, 4, 10}, [3]float64{1, 4, 10})},
		"surplus line":               {name: "w", proc: 1, steps: linesOf(1, [3]float64{0, 4, 10}, [3]float64{1, 4, 10}, [3]float64{2, 3, 6}, [3]float64{3, 3, 6})},
		"someone else's line":        {name: "w", proc: 1, steps: linesOf(2, [3]float64{0, 4, 10}, [3]float64{1, 4, 10}, [3]float64{2, 3, 6})},
	} {
		var v verdict
		checkLines(&v, w, 0, 3, want)
		if v.failed == 0 || len(v.problems) == 0 {
			t.Errorf("%s: not flagged (%+v)", name, v)
		}
	}
}

// BENCHMARK.json is the contract the harness reads; the driver's tables
// must say the same thing.
func TestBenchmarkFileMatchesDriver(t *testing.T) {
	bf, err := readBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d top-level keys, want exactly 6", len(keys))
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the driver", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %q vs %q", i, bf.Workloads[i].Name, w.name)
		}
		if n := len(bf.Workloads[i].Why); n == 0 || n > 200 || strings.Contains(bf.Workloads[i].Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters (has %d)", w.name, n)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the driver", len(bf.EndToEnd), len(endToEnd))
	}
	sawSetup := false
	for i, m := range endToEnd {
		got := bf.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit {
			t.Errorf("end-to-end %d: %s/%s vs %s/%s", i, got.Name, got.Unit, m.name, m.unit)
		}
		if got.Bound <= 0 || got.Bound > 0.25 || (got.Better != "lower" && got.Better != "higher") {
			t.Errorf("%s: bound %v better %q", got.Name, got.Bound, got.Better)
		}
		if got.Name == "setup_s" && got.Unit == "s" && got.Better == "lower" {
			sawSetup = true
		}
	}
	if !sawSetup {
		t.Error("setup_s (s, lower) is required")
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the driver", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if bf.PerLayer[i].Name != m.name || bf.PerLayer[i].Unit != m.unit {
			t.Errorf("per-layer %d: %s/%s vs %s/%s", i, bf.PerLayer[i].Name, bf.PerLayer[i].Unit, m.name, m.unit)
		}
	}
}
