package repro

import (
	"fmt"
	"testing"

	"repro/internal/experiments"
	"repro/internal/horovod"
	"repro/internal/models"
	"repro/internal/mpi"
	"repro/internal/simnet"
)

// Ablation benchmarks: quantify the design choices DESIGN.md calls out.
// Reported metrics are virtual seconds/milliseconds from the calibrated
// cost model; ns/op reflects harness wall-clock only.

// BenchmarkAblationAllreduceAlgo compares the three allreduce schedules
// at 24 ranks for a small and a large payload.
func BenchmarkAblationAllreduceAlgo(b *testing.B) {
	for _, elems := range []int{1024, 4 << 20} {
		for _, algo := range []string{"ring", "recdouble", "hier"} {
			b.Run(fmt.Sprintf("%s/%dKiB", algo, elems*4/1024), func(b *testing.B) {
				var vsec float64
				for i := 0; i < b.N; i++ {
					cl := simnet.New(simnet.Summit(4))
					procs := cl.Procs()
					errs := simnet.RunAll(cl, procs, func(rank int, ep *simnet.Endpoint) error {
						p := mpi.Attach(ep)
						comm, err := mpi.World(p, procs)
						if err != nil {
							return err
						}
						data := make([]float32, elems)
						if algo == "ring" {
							return mpi.Allreduce(comm, data, mpi.OpSum) // the static ring/tree pick
						}
						a, err := mpi.ParseAllreduceAlgo(algo)
						if err != nil {
							return err
						}
						return mpi.AllreduceWith(comm, data, mpi.OpSum, a)
					})
					if err := simnet.FirstError(errs); err != nil {
						b.Fatal(err)
					}
					vsec = cl.MaxTime()
				}
				b.ReportMetric(vsec*1e3, "vms/op")
			})
		}
	}
}

// BenchmarkAblationFusionThreshold sweeps the fusion buffer size for a
// ResNet-50 gradient exchange.
func BenchmarkAblationFusionThreshold(b *testing.B) {
	sched := models.ResNet50V2.TensorSchedule()
	for _, th := range []int64{1 << 20, 8 << 20, 64 << 20} {
		b.Run(fmt.Sprintf("%dMiB", th>>20), func(b *testing.B) {
			var vsec float64
			for i := 0; i < b.N; i++ {
				cl := simnet.New(simnet.Summit(4))
				procs := cl.Procs()
				errs := simnet.RunAll(cl, procs, func(rank int, ep *simnet.Endpoint) error {
					p := mpi.Attach(ep)
					comm, err := mpi.World(p, procs)
					if err != nil {
						return err
					}
					cfg := horovod.DefaultConfig()
					cfg.FusionBytes = th
					w := horovod.NewWorker(horovod.NewMPIBackend(comm), cfg)
					return w.AllreduceGradsVirtual("resnet", sched)
				})
				if err := simnet.FirstError(errs); err != nil {
					b.Fatal(err)
				}
				vsec = cl.MaxTime()
			}
			b.ReportMetric(vsec*1e3, "vms/step")
		})
	}
}

// BenchmarkAblationDetectionTimeout shows the Gloo timeout flooring the
// baseline's recovery latency: the reported recovery total tracks the
// configured timeout nearly 1:1.
func BenchmarkAblationDetectionTimeout(b *testing.B) {
	for _, timeout := range []float64{0.5, 2.0, 5.0} {
		b.Run(fmt.Sprintf("%.1fs", timeout), func(b *testing.B) {
			var recovery float64
			for i := 0; i < b.N; i++ {
				tab, err := experiments.DetectionTimeoutTable([]float64{timeout})
				if err != nil {
					b.Fatal(err)
				}
				fmt.Sscanf(tab.Rows[0][2], "%f", &recovery)
			}
			b.ReportMetric(recovery, "vsec/recovery")
		})
	}
}

// BenchmarkGoodputUnderFailures reports end-to-end training efficiency
// with evenly spaced failures (the extension experiment).
func BenchmarkGoodputUnderFailures(b *testing.B) {
	var tabStr string
	for i := 0; i < b.N; i++ {
		tab, err := experiments.GoodputTable(models.NasNetMobile, 12, []int{1, 2})
		if err != nil {
			b.Fatal(err)
		}
		tabStr = tab.String()
	}
	_ = tabStr
}
