// Command benchtab regenerates the paper's tables and figures on the
// simulated testbed and prints them as text.
//
// Usage:
//
//	benchtab -table 1          # Table 1 (benchmark models)
//	benchtab -table 2          # Table 2 (capability matrix, probed)
//	benchtab -figure 2         # recovery granularity comparison
//	benchtab -figure 4         # Scenario I breakdown, ResNet-50, 24 GPUs
//	benchtab -figure 5         # VGG-16 sweep        (12..192 GPUs)
//	benchtab -figure 6         # ResNet-50 sweep
//	benchtab -figure 7         # NasNetMobile sweep
//	benchtab -eq1              # checkpoint cost model
//	benchtab -all              # everything
//	benchtab -figure 6 -scales 12,24,48   # restrict the GPU axis
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/controlplane"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/models"
)

func main() {
	table := flag.Int("table", 0, "regenerate Table N (1 or 2)")
	figure := flag.Int("figure", 0, "regenerate Figure N (2, 4, 5, 6, 7; 8 = scale-trend summary)")
	eq1 := flag.Bool("eq1", false, "evaluate the Eq. (1) cost model")
	ablations := flag.Bool("ablations", false, "run the design-choice ablations (allreduce algorithm, fusion, cache, detection timeout, goodput)")
	controlplanePath := flag.String("controlplane", "", "measure the gossip control plane (membership convergence, simnet virtual time) and write the JSON report to this file (- = stdout)")
	all := flag.Bool("all", false, "regenerate everything")
	scalesFlag := flag.String("scales", "", "comma-separated GPU counts for sweeps (default 12,24,48,96,192)")
	segments := flag.Bool("segments", false, "with -figure 5/6/7: also print per-segment decompositions")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned text")
	flag.Parse()

	printTable := func(t *metrics.Table) {
		if *csv {
			fmt.Print(t.CSV())
			fmt.Println()
			return
		}
		fmt.Println(t)
	}
	printFigure := func(f *metrics.Figure) {
		if *csv {
			fmt.Print(f.CSV())
			fmt.Println()
			return
		}
		fmt.Println(f)
	}

	scales := experiments.SweepScales
	if *scalesFlag != "" {
		scales = nil
		for _, s := range strings.Split(*scalesFlag, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || v <= 0 {
				fatalf("bad -scales entry %q", s)
			}
			scales = append(scales, v)
		}
	}

	ran := false
	if *all || *table == 1 {
		printTable(experiments.Table1())
		ran = true
	}
	if *all || *table == 2 {
		tab, err := experiments.Table2()
		check(err)
		printTable(tab)
		ran = true
	}
	if *all || *figure == 2 {
		tab, err := experiments.Figure2()
		check(err)
		printTable(tab)
		ran = true
	}
	if *all || *figure == 4 {
		tab, err := experiments.Figure4()
		check(err)
		printTable(tab)
		ran = true
	}
	sweeps := map[int]models.Spec{5: models.VGG16, 6: models.ResNet50V2, 7: models.NasNetMobile}
	for n := 5; n <= 7; n++ {
		if *all || *figure == n {
			spec := sweeps[n]
			fig, err := experiments.SweepFigure(spec, scales)
			check(err)
			fig.Title = fmt.Sprintf("Figure %d: %s", n, fig.Title)
			printFigure(fig)
			if *segments || *all {
				for _, scen := range experiments.Scenarios() {
					seg, err := experiments.SweepSegments(spec, scen, scales)
					check(err)
					printFigure(seg)
				}
			}
			ran = true
		}
	}
	if *all || *figure == 8 {
		// Not a paper figure: the scale-trend summary backing the paper's
		// closing claim.
		tab, err := experiments.ScaleTrendTable(models.NasNetMobile, scales)
		check(err)
		printTable(tab)
		ran = true
	}
	if *all || *eq1 {
		tab, err := experiments.Eq1Table()
		check(err)
		printTable(tab)
		ran = true
	}
	if *all || *ablations {
		tab, err := experiments.AllreduceAlgoTable(24, []int{1024, 16384, 262144, 4194304})
		check(err)
		printTable(tab)
		tab, err = experiments.FusionTable(models.ResNet50V2, 24, []int64{1 << 20, 8 << 20, 64 << 20, 256 << 20})
		check(err)
		printTable(tab)
		tab, err = experiments.CacheTable(models.NasNetMobile, 24)
		check(err)
		printTable(tab)
		tab, err = experiments.DetectionTimeoutTable([]float64{0.5, 1, 2, 5, 10})
		check(err)
		printTable(tab)
		tab, err = experiments.GoodputTable(models.NasNetMobile, 24, []int{1, 2, 3})
		check(err)
		printTable(tab)
		tab, err = experiments.ConvergenceTable()
		check(err)
		printTable(tab)
		tab, err = experiments.CompressionTable(8, 1<<16)
		check(err)
		printTable(tab)
		printTable(experiments.PFSTable())
		ran = true
	}
	if *controlplanePath != "" {
		// Deterministic virtual-time measurements: the simulator's event
		// heap and seeded RNG fully determine every number, so this runs
		// in well under a second and reproduces bit-for-bit.
		rep, err := controlplane.Collect(controlplane.Default())
		check(err)
		blob, err := rep.JSON()
		check(err)
		if *controlplanePath == "-" {
			fmt.Print(string(blob))
		} else {
			check(os.WriteFile(*controlplanePath, blob, 0o644))
			fmt.Fprintf(os.Stderr, "benchtab: wrote %s\n", *controlplanePath)
		}
		ran = true
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}

func check(err error) {
	if err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchtab: "+format+"\n", args...)
	os.Exit(1)
}
