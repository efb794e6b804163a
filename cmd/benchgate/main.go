// Command benchgate compares a freshly measured gossip control-plane
// report against the committed baseline (BENCH_controlplane.json) and
// fails if any row of a world present in both regressed beyond the
// tolerance: membership convergence, kill detection, spare-swap recovery
// and policy regret gate upward, state-transfer throughput gates
// downward. Those numbers come from the deterministic simulator and
// carry no host noise, so the tolerance can be tight. The one wall-clock
// row, the policy decision latency, is held to an absolute ceiling.
//
//	benchtab -controlplane fresh_controlplane.json
//	benchgate -fresh fresh_controlplane.json -tolerance 0.10 -max-decision-us 200
//
// The data plane is measured end to end by the elasticbench module
// (bench/), not here.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/controlplane"
)

func main() {
	basePath := flag.String("baseline", "BENCH_controlplane.json", "committed baseline report")
	freshPath := flag.String("fresh", "", "freshly measured report to gate (required)")
	tolerance := flag.Float64("tolerance", 0.10, "allowed fractional regression per row (0.10 = 10%)")
	maxDecisionUS := flag.Float64("max-decision-us", 0, "absolute ceiling on the fresh policy_decision_us rows (0 = off; the one wall-clock number in the report, so it gates on a ceiling, not a diff)")
	flag.Parse()
	if *freshPath == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -fresh is required")
		os.Exit(2)
	}
	base, err := load(*basePath)
	check(err)
	fresh, err := load(*freshPath)
	check(err)

	failures, compared := gate(os.Stdout, base, fresh, *tolerance, *maxDecisionUS)
	if compared == 0 {
		fmt.Fprintln(os.Stderr, "benchgate: no comparable cells between baseline and fresh report")
		os.Exit(1)
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "benchgate: %d of %d control-plane cells regressed more than %.0f%%\n",
			failures, compared, *tolerance*100)
		os.Exit(1)
	}
	fmt.Printf("benchgate: %d control-plane cells within %.0f%% of baseline\n", compared, *tolerance*100)
}

// gate diffs every world present in both reports, writes one line per
// compared row to w, and returns how many rows regressed out of how
// many were compared. compared is 0 when the reports share no world.
func gate(w io.Writer, base, fresh *controlplane.Report, tolerance, maxDecisionUS float64) (failures, compared int) {
	// row gates one baseline/fresh pair: a latency or regret row fails
	// above 1+tolerance, a throughput row (higherIsBetter) below
	// 1-tolerance.
	row := func(key, unit string, baseV, freshV float64, higherIsBetter bool) {
		compared++
		ratio := freshV / baseV
		status := "ok"
		if (!higherIsBetter && ratio > 1+tolerance) || (higherIsBetter && ratio < 1-tolerance) {
			status = "REGRESSION"
			failures++
		}
		fmt.Fprintf(w, "%-40s %10.2f -> %10.2f %-4s %+6.1f%%  %s\n",
			key, baseV, freshV, unit, (ratio-1)*100, status)
	}
	for _, b := range base.Cells {
		for _, f := range fresh.Cells {
			if f.World != b.World {
				continue
			}
			key := func(name string) string { return fmt.Sprintf("%s/world=%d", name, b.World) }
			row(key("join-converge"), "ms", b.JoinConvergeMS, f.JoinConvergeMS, false)
			row(key("kill-detect"), "ms", b.KillDetectMS, f.KillDetectMS, false)
			row(key("spare-swap-recovery"), "ms", b.SpareSwapRecoveryMS, f.SpareSwapRecoveryMS, false)
			row(key("state-transfer-throughput"), "MB/s", b.StateXferMBps, f.StateXferMBps, true)
			row(key("policy-regret"), "%", b.PolicyRegretPct, f.PolicyRegretPct, false)
			// The decision latency is wall clock, so relative gating would
			// just measure the runner. An absolute ceiling still catches an
			// accidental O(world²) scan or allocation storm.
			if maxDecisionUS > 0 {
				compared++
				status := "ok"
				if f.PolicyDecisionUS > maxDecisionUS {
					status = "ABOVE CEILING"
					failures++
				}
				fmt.Fprintf(w, "%-40s %10.2f us/op (ceiling %.0f)  %s\n",
					key("policy-decision"), f.PolicyDecisionUS, maxDecisionUS, status)
			}
		}
	}
	return failures, compared
}

func load(path string) (*controlplane.Report, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep controlplane.Report
	if err := json.Unmarshal(blob, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(1)
	}
}
