package mpi

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/simnet"
)

func TestAllreduceRecursiveDoubling(t *testing.T) {
	for _, p := range []int{2, 3, 4, 5, 6, 7, 8} {
		t.Run(fmt.Sprintf("p%d", p), func(t *testing.T) {
			var mu sync.Mutex
			got := map[int][]float64{}
			world(t, 1, p, func(c *Comm) error {
				data := []float64{float64(c.Rank() + 1), float64(c.Rank() * 2)}
				if err := AllreduceRecursiveDoubling(c, data, OpSum); err != nil {
					return err
				}
				mu.Lock()
				got[c.Rank()] = data
				mu.Unlock()
				return nil
			})
			want0 := float64(p*(p+1)) / 2
			want1 := float64(p * (p - 1))
			for r := 0; r < p; r++ {
				if got[r][0] != want0 || got[r][1] != want1 {
					t.Fatalf("p=%d rank %d = %v, want [%v %v]", p, r, got[r], want0, want1)
				}
			}
		})
	}
}

func TestAllreduceHierarchical(t *testing.T) {
	for _, shape := range []struct{ nodes, ppn int }{{1, 4}, {2, 3}, {4, 2}, {3, 1}} {
		t.Run(fmt.Sprintf("%dx%d", shape.nodes, shape.ppn), func(t *testing.T) {
			p := shape.nodes * shape.ppn
			var mu sync.Mutex
			got := map[int]float64{}
			world(t, shape.nodes, shape.ppn, func(c *Comm) error {
				data := make([]float64, 50)
				for i := range data {
					data[i] = float64(c.Rank() + 1)
				}
				if err := AllreduceHierarchical(c, data, OpSum); err != nil {
					return err
				}
				mu.Lock()
				got[c.Rank()] = data[7]
				mu.Unlock()
				return nil
			})
			want := float64(p*(p+1)) / 2
			for r := 0; r < p; r++ {
				if got[r] != want {
					t.Fatalf("rank %d = %v, want %v", r, got[r], want)
				}
			}
		})
	}
}

// Property: all allreduce algorithms — including the chunk-pipelined ring
// at several split factors — agree with the serial sum, across world sizes
// from the single-rank world up and element counts chosen independently of
// p and K (so n is routinely not a multiple of p*K, and often below p).
func TestAllreduceAlgorithmsAgreeProperty(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		p := int(sz%7) + 1 // 1..7: include the single-rank world
		rng := rand.New(rand.NewSource(seed))
		elems := rng.Intn(200) + 1
		if rng.Intn(4) == 0 {
			elems = rng.Intn(p + 2) // force the n < p and n < p*K regimes
		}
		inputs := make([][]float64, p)
		want := make([]float64, elems)
		for r := range inputs {
			inputs[r] = make([]float64, elems)
			for i := range inputs[r] {
				inputs[r][i] = float64(rng.Intn(100))
				want[i] += inputs[r][i]
			}
		}
		for _, algo := range []string{"auto", "recdouble", "hier", "pipelined", "pipelined-k1", "pipelined-k3"} {
			okAll := true
			var mu sync.Mutex
			c2 := newTestCluster(1, p)
			procs := c2.Procs()
			errs := runAllWorld(c2, procs, func(c *Comm) error {
				data := append([]float64(nil), inputs[c.Rank()]...)
				var err error
				switch algo {
				case "auto":
					err = Allreduce(c, data, OpSum)
				case "recdouble":
					err = AllreduceRecursiveDoubling(c, data, OpSum)
				case "hier":
					err = AllreduceHierarchical(c, data, OpSum)
				case "pipelined":
					err = AllreducePipelinedRing(c, data, OpSum)
				case "pipelined-k1":
					err = AllreducePipelinedRingChunks(c, data, OpSum, 1)
				case "pipelined-k3":
					err = AllreducePipelinedRingChunks(c, data, OpSum, 3)
				}
				if err != nil {
					return err
				}
				for i := range data {
					if data[i] != want[i] {
						mu.Lock()
						okAll = false
						mu.Unlock()
						break
					}
				}
				return nil
			})
			if err := simnet.FirstError(errs); err != nil || !okAll {
				t.Logf("algo %s p=%d elems=%d: err=%v okAll=%v", algo, p, elems, simnet.FirstError(errs), okAll)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// The pipelined ring must be bit-identical to the plain ring on
// fractional floats: chunking reorders the schedule, never the
// per-element reduction order.
func TestAllreducePipelinedBitIdenticalToRing(t *testing.T) {
	const p = 5
	// Big enough that Allreduce's auto pick is the ring (> 64 KiB), and
	// deliberately not a multiple of p*K.
	const elems = 16*1024 + 13
	rng := rand.New(rand.NewSource(42))
	inputs := make([][]float64, p)
	for r := range inputs {
		inputs[r] = make([]float64, elems)
		for i := range inputs[r] {
			inputs[r][i] = rng.NormFloat64()
		}
	}
	results := map[string]map[int][]float64{}
	for _, algo := range []string{"ring", "pipelined"} {
		var mu sync.Mutex
		got := map[int][]float64{}
		c2 := newTestCluster(1, p)
		procs := c2.Procs()
		errs := runAllWorld(c2, procs, func(c *Comm) error {
			data := append([]float64(nil), inputs[c.Rank()]...)
			var err error
			if algo == "ring" {
				err = Allreduce(c, data, OpSum)
			} else {
				err = AllreducePipelinedRing(c, data, OpSum)
			}
			if err != nil {
				return err
			}
			mu.Lock()
			got[c.Rank()] = data
			mu.Unlock()
			return nil
		})
		if err := simnet.FirstError(errs); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		results[algo] = got
	}
	for r := 0; r < p; r++ {
		ring, pipe := results["ring"][r], results["pipelined"][r]
		for i := range ring {
			if math.Float64bits(ring[i]) != math.Float64bits(pipe[i]) {
				t.Fatalf("rank %d elem %d: ring %x != pipelined %x", r, i, ring[i], pipe[i])
			}
		}
	}
}

func TestAllreducePipelinedRingOps(t *testing.T) {
	const p = 4
	for _, op := range []Op{OpSum, OpMax, OpMin} {
		var mu sync.Mutex
		got := map[int][]float64{}
		world(t, 1, p, func(c *Comm) error {
			data := []float64{float64(c.Rank() + 1), float64(-c.Rank()), 7}
			if err := AllreducePipelinedRingChunks(c, data, op, 2); err != nil {
				return err
			}
			mu.Lock()
			got[c.Rank()] = data
			mu.Unlock()
			return nil
		})
		var want []float64
		switch op {
		case OpSum:
			want = []float64{10, -6, 28}
		case OpMax:
			want = []float64{4, 0, 7}
		case OpMin:
			want = []float64{1, -3, 7}
		}
		for r := 0; r < p; r++ {
			for i := range want {
				if got[r][i] != want[i] {
					t.Fatalf("op %v rank %d = %v, want %v", op, r, got[r], want)
				}
			}
		}
	}
}

func TestAllreducePipelinedRejectsBadChunks(t *testing.T) {
	world(t, 1, 2, func(c *Comm) error {
		err := AllreducePipelinedRingChunks(c, []float64{1}, OpSum, 0)
		if err == nil {
			return fmt.Errorf("chunk count 0 accepted")
		}
		// The failed call consumed a sequence number at every rank alike
		// (nextSeq precedes validation), so the communicator remains
		// usable; prove it with a follow-up collective.
		data := []float64{float64(c.Rank())}
		return Allreduce(c, data, OpSum)
	})
}

func TestParseAllreduceAlgo(t *testing.T) {
	good := map[string]AllreduceAlgo{
		"":                   AlgoAuto,
		"auto":               AlgoAuto,
		"recdouble":          AlgoRecursiveDoubling,
		"Recursive-Doubling": AlgoRecursiveDoubling,
		"hier":               AlgoHierarchical,
		"hierarchical":       AlgoHierarchical,
		"pipelined":          AlgoPipelinedRing,
		"pipelined-ring":     AlgoPipelinedRing,
	}
	for s, want := range good {
		got, err := ParseAllreduceAlgo(s)
		if err != nil || got != want {
			t.Errorf("ParseAllreduceAlgo(%q) = (%v, %v), want %v", s, got, err, want)
		}
	}
	if _, err := ParseAllreduceAlgo("bogus"); err == nil {
		t.Error("ParseAllreduceAlgo accepted garbage")
	}
	for _, a := range []AllreduceAlgo{AlgoAuto, AlgoRecursiveDoubling, AlgoHierarchical, AlgoPipelinedRing} {
		back, err := ParseAllreduceAlgo(a.String())
		if err != nil || back != a {
			t.Errorf("round-trip %v -> %q -> (%v, %v)", a, a.String(), back, err)
		}
	}
}

// AllreduceWith must dispatch every selector to an algorithm that reduces
// correctly (the property test covers the algorithms themselves).
func TestAllreduceWithDispatch(t *testing.T) {
	for _, algo := range []AllreduceAlgo{AlgoAuto, AlgoRecursiveDoubling, AlgoHierarchical, AlgoPipelinedRing} {
		const p = 3
		var mu sync.Mutex
		got := map[int]float64{}
		world(t, 1, p, func(c *Comm) error {
			data := []float64{float64(c.Rank() + 1)}
			if err := AllreduceWith(c, data, OpSum, algo); err != nil {
				return err
			}
			mu.Lock()
			got[c.Rank()] = data[0]
			mu.Unlock()
			return nil
		})
		for r := 0; r < p; r++ {
			if got[r] != 6 {
				t.Fatalf("algo %v rank %d = %v, want 6", algo, r, got[r])
			}
		}
	}
}

// runAllWorld runs body at every rank over a fresh world on c.
func runAllWorld(c *simnet.Cluster, procs []simnet.ProcID, body func(comm *Comm) error) map[simnet.ProcID]error {
	return simnet.RunAll(c, procs, func(rank int, ep *simnet.Endpoint) error {
		p := Attach(ep)
		comm, err := World(p, procs)
		if err != nil {
			return err
		}
		return body(comm)
	})
}
