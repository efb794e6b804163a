package main

import (
	"fmt"
	"os"
)

// aaMain runs every workload twice on the same tree with the same seed
// and holds the two sets against each other: for each workload × end-to-
// end metric it prints how much worse the second run is than the first,
// next to the bound BENCHMARK.json allows. Any excess, or any failed
// step, makes the exit status 1. It is the check that the bounds are
// wider than the benchmark's own noise.
func aaMain(e *env, seed int64, seconds float64) int {
	bf, err := readBenchmarkFile(e.root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "elasticbench:", err)
		return 2
	}
	var sets [2]map[string]*result
	for i := range sets {
		sets[i] = map[string]*result{}
		for _, wl := range workloads {
			fmt.Printf("aa: set %d, %s\n", i+1, wl.name)
			sets[i][wl.name] = runUntraced(e, wl, seed, seconds)
		}
	}
	status := 0
	fmt.Printf("\n%-16s %-22s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "worse", "bound")
	for _, wl := range workloads {
		a, b := sets[0][wl.name], sets[1][wl.name]
		for _, m := range bf.EndToEnd {
			va, vb := a.values[m.Name], b.values[m.Name]
			worse := 0.0
			if va != 0 {
				worse = (vb - va) / va
				if m.Better == "higher" {
					worse = -worse
				}
			}
			flag := ""
			if worse > m.Bound {
				flag, status = "  EXCEEDS", 1
			}
			fmt.Printf("%-16s %-22s %14.4f %14.4f %+8.2f%% %6.0f%%%s\n", wl.name, m.Name, va, vb, worse*100, m.Bound*100, flag)
		}
		for _, r := range []*result{a, b} {
			if r.failed > 0 || len(r.problems) > 0 {
				status = 1
				fmt.Printf("%-16s failed %d of %d steps: %v\n", wl.name, r.failed, r.attempted, r.problems)
			}
		}
	}
	return status
}
