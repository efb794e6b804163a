package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/elastic"
	"repro/internal/failure"
	"repro/internal/gloo"
	"repro/internal/horovod"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/simnet"
	"repro/internal/train"
)

// Training-quality experiments: beyond recovery cost, verify that both
// recovery styles preserve learning, and quantify the difference in how
// much data each style effectively uses.

func qualityCluster() *simnet.Cluster {
	return simnet.New(simnet.Config{
		Nodes:              4,
		ProcsPerNode:       2,
		IntraNodeLatency:   1.5e-6,
		InterNodeLatency:   3e-6,
		IntraNodeBandwidth: 50e9,
		InterNodeBandwidth: 4e9,
		PerMessageOverhead: 1e-6,
		DetectLatency:      2e-3,
		SpawnDelay:         1,
	})
}

func qualityTrain(epochs int) train.Config {
	return train.Config{
		Mode:        train.Real,
		MLPSizes:    []int{8, 32, 4},
		Seed:        17,
		Dataset:     data.NewSynthetic(800, 8, 4, 23),
		BatchSize:   10,
		Epochs:      epochs,
		BaseLR:      0.05,
		Momentum:    0.9,
		RefWorkers:  8,
		WarmupSteps: 10,
	}
}

type qualityRun struct {
	finalLoss  float64
	losses     []float64
	finalSize  int
	consistent bool
	totalTime  float64
}

func runQualityUL(sched *failure.Schedule, scen core.Scenario, epochs int) (*qualityRun, error) {
	job, err := core.NewJob(qualityCluster(), core.Config{
		Train:      qualityTrain(epochs),
		Horovod:    horovod.DefaultConfig(),
		Scenario:   scen,
		DropPolicy: failure.KillProcess,
		Schedule:   sched,
	})
	if err != nil {
		return nil, err
	}
	res, err := job.Run()
	if err != nil {
		return nil, err
	}
	return summarizeQuality(res.LossHistory, res.FinalSize, res.FinalHashes, res.TotalTime)
}

func runQualityEH(sched *failure.Schedule, scen elastic.Scenario, epochs int) (*qualityRun, error) {
	job, err := elastic.NewJob(qualityCluster(), newKV(), elastic.Config{
		Train:    qualityTrain(epochs),
		Gloo:     gloo.DefaultConfig(),
		Horovod:  horovod.DefaultConfig(),
		Scenario: scen,
		Schedule: sched,
	})
	if err != nil {
		return nil, err
	}
	res, err := job.Run()
	if err != nil {
		return nil, err
	}
	return summarizeQuality(res.LossHistory, res.FinalSize, res.FinalHashes, res.TotalTime)
}

func summarizeQuality(losses []float64, size int, hashes map[simnet.ProcID]uint64, total float64) (*qualityRun, error) {
	if len(losses) == 0 {
		return nil, fmt.Errorf("experiments: no loss history recorded")
	}
	q := &qualityRun{
		finalLoss: losses[len(losses)-1],
		losses:    losses,
		finalSize: size,
		totalTime: total,
	}
	q.consistent = true
	var first uint64
	got := false
	for _, h := range hashes {
		if !got {
			first, got = h, true
		} else if h != first {
			q.consistent = false
		}
	}
	return q, nil
}

// ConvergenceTable trains the same real task under both stacks with and
// without a failure, reporting final losses, replica consistency, and
// wall time — learning must survive both recovery styles.
func ConvergenceTable() (*metrics.Table, error) {
	const epochs = 8
	fail := func() *failure.Schedule { return failure.At(3, 2, 6, failure.KillProcess) }

	base, err := runQualityUL(failure.None(), core.ScenarioDown, epochs)
	if err != nil {
		return nil, err
	}
	ulDown, err := runQualityUL(fail(), core.ScenarioDown, epochs)
	if err != nil {
		return nil, err
	}
	ulSame, err := runQualityUL(fail(), core.ScenarioSame, epochs)
	if err != nil {
		return nil, err
	}
	ehDown, err := runQualityEH(fail(), elastic.ScenarioDown, epochs)
	if err != nil {
		return nil, err
	}

	t := &metrics.Table{
		Title:   "Extension: convergence through recovery (real MLP, 8 workers, failure at epoch 3)",
		Headers: []string{"run", "final-loss", "workers", "replicas-consistent", "virtual-time(s)"},
	}
	add := func(name string, q *qualityRun) {
		t.AddRow(name,
			fmt.Sprintf("%.4f", q.finalLoss),
			fmt.Sprintf("%d", q.finalSize),
			fmt.Sprintf("%v", q.consistent),
			fmt.Sprintf("%.2f", q.totalTime))
	}
	add("failure-free", base)
	add("ULFM-down", ulDown)
	add("ULFM-replace", ulSame)
	add("EH-down(node)", ehDown)
	return t, nil
}

// CompressionTable is the bit-accuracy ablation for the wire-format
// gradient codecs: the same gradient-like tensors are allreduced over a
// full schedule under each codec, and the lossy row reports its wire
// cost next to the error it actually injects — max and RMS relative to
// the lossless float64 sum — plus the cross-rank bit-consistency the
// ULFM layer requires. Magnitudes span blocks from 2^-6 to 2^6 so the
// fp16 dynamic range is stressed.
func CompressionTable(ranks, elems int) (*metrics.Table, error) {
	inputs := make([][]float32, ranks)
	exact := make([]float64, elems)
	for r := range inputs {
		rng := rand.New(rand.NewSource(int64(71 + r)))
		inputs[r] = make([]float32, elems)
		for i := range inputs[r] {
			block := float32(math.Pow(2, float64(6-12*i/elems)))
			inputs[r][i] = float32(rng.NormFloat64()) * block
			exact[i] += float64(inputs[r][i])
		}
	}
	var norm float64 // RMS of the exact sum, the error denominators
	for _, v := range exact {
		norm += v * v
	}
	norm = math.Sqrt(norm / float64(elems))

	t := &metrics.Table{
		Title:   fmt.Sprintf("Ablation: gradient wire compression (pipelined ring, %d ranks, %d elems)", ranks, elems),
		Headers: []string{"codec", "wire-bytes/elem", "max-err/rms(sum)", "rms-err/rms(sum)", "replicas-bit-identical"},
	}
	for _, codec := range []mpi.WireCodec{mpi.CodecRaw, mpi.CodecFP16} {
		results := make([][]float32, ranks)
		cl := simnet.New(simnet.Config{
			Nodes: ranks, ProcsPerNode: 1,
			IntraNodeLatency: 1.5e-6, InterNodeLatency: 3e-6,
			IntraNodeBandwidth: 50e9, InterNodeBandwidth: 4e9,
			DetectLatency: 2e-3, SpawnDelay: 1,
		})
		procs := cl.Procs()
		errs := simnet.RunAll(cl, procs, func(rank int, ep *simnet.Endpoint) error {
			comm, err := mpi.World(mpi.Attach(ep), procs)
			if err != nil {
				return err
			}
			data := append([]float32(nil), inputs[rank]...)
			err = mpi.AllreduceOpts(comm, data, mpi.OpSum,
				mpi.AllreduceOptions{Algo: mpi.AlgoPipelinedRing, Codec: codec})
			results[rank] = data
			return err
		})
		if err := simnet.FirstError(errs); err != nil {
			return nil, err
		}
		consistent := true
		for r := 1; r < ranks; r++ {
			for i := range results[0] {
				if math.Float32bits(results[r][i]) != math.Float32bits(results[0][i]) {
					consistent = false
				}
			}
		}
		var maxErr, sumSq float64
		for i, got := range results[0] {
			e := math.Abs(float64(got) - exact[i])
			if e > maxErr {
				maxErr = e
			}
			sumSq += e * e
		}
		wirePerElem := float64(mpi.WireBytesPerElem(codec, 4))
		t.AddRow(codec.String(),
			fmt.Sprintf("%.2f", wirePerElem),
			fmt.Sprintf("%.2e", maxErr/norm),
			fmt.Sprintf("%.2e", math.Sqrt(sumSq/float64(elems))/norm),
			fmt.Sprintf("%v", consistent))
	}
	return t, nil
}

// PFSTable quantifies the checkpointing cost the paper's memory-only
// assumption hides: per-checkpoint cost on a shared parallel file system
// vs in-memory copies, across worker counts, for the Table 1 model state
// sizes.
func PFSTable() *metrics.Table {
	t := &metrics.Table{
		Title:   "Extension: checkpoint target cost (s per save) — memory vs parallel file system",
		Headers: []string{"workers", "memory (ResNet-50)", "PFS (ResNet-50)", "memory (VGG-16)", "PFS (VGG-16)"},
	}
	p := checkpoint.NewPFS()
	const memBW = 10e9
	resnet := int64(2 * 25_600_000 * 4)
	vgg := int64(2 * 143_700_000 * 4)
	for _, n := range []int{6, 24, 96, 192} {
		t.AddRow(
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%.4f", float64(resnet)/memBW),
			fmt.Sprintf("%.4f", p.SaveTime(n, resnet)),
			fmt.Sprintf("%.4f", float64(vgg)/memBW),
			fmt.Sprintf("%.4f", p.SaveTime(n, vgg)),
		)
	}
	return t
}
