package mpi

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// TestAllreduceIntoLeavesInputUntouched: for every schedule and codec,
// at worlds from one rank up and at lengths below the world size, not
// divisible by p·K, and one element either side of the 64 KiB tree/ring
// boundary, an out-of-place allreduce
//   - leaves in bit-identical,
//   - fills out (NaN before the call) with the in-place result's bits,
//     the same at every rank,
//   - given in == out, is the in-place call,
//
// and partly overlapping buffers are refused before any traffic.
func TestAllreduceIntoLeavesInputUntouched(t *testing.T) {
	const K = DefaultPipelineChunks
	for _, algo := range []AllreduceAlgo{AlgoAuto, AlgoRecursiveDoubling, AlgoHierarchical, AlgoPipelinedRing, AlgoRing} {
		for _, codec := range []WireCodec{CodecRaw, CodecFP16} {
			for _, p := range []int{1, 2, 3, 4, 5, 8} {
				for _, n := range []int{p - 1, 3*p*K + 1, 8<<10 - 1, 8<<10 + 1} {
					o := AllreduceOptions{Algo: algo, Chunks: K, Codec: codec}
					t.Run(fmt.Sprintf("%v/%v/world%d/n%d", algo, codec, p, n), func(t *testing.T) {
						intoMatchesInPlace(t, p, n, o)
					})
				}
			}
		}
	}
}

func intoMatchesInPlace(t *testing.T, p, n int, o AllreduceOptions) {
	// Two ranks to a node where the world is even, so the hierarchical
	// schedule runs both its intra-node steps and its leader ring.
	nodes, ppn := p, 1
	if p%2 == 0 {
		nodes, ppn = p/2, 2
	}
	var mu sync.Mutex
	results := make([][]float64, p)
	world(t, nodes, ppn, func(c *Comm) error {
		rng := rand.New(rand.NewSource(int64(c.Rank()) + 1))
		in := make([]float64, n)
		for i := range in {
			in[i] = rng.NormFloat64() * 100
		}
		keep := slices.Clone(in)
		out := make([]float64, n)
		for i := range out {
			out[i] = math.NaN()
		}
		// A failed check is reported after the rank's last collective,
		// so it never strands the other ranks inside one.
		var bad error
		check := func(ok bool, what string) {
			if !ok && bad == nil {
				bad = fmt.Errorf("rank %d: %s", c.Rank(), what)
			}
		}
		if err := AllreduceInto(c, in, out, OpSum, o); err != nil {
			return err
		}
		check(sameBits(in, keep), "in changed")
		inPlace := slices.Clone(keep)
		if err := AllreduceOpts(c, inPlace, OpSum, o); err != nil {
			return err
		}
		check(sameBits(out, inPlace), "out differs from the in-place result")
		aliased := slices.Clone(keep)
		if err := AllreduceInto(c, aliased, aliased, OpSum, o); err != nil {
			return err
		}
		check(sameBits(aliased, inPlace), "in == out differs from the in-place result")
		if n >= 3 {
			err := AllreduceInto(c, in[1:], in[:n-1], OpSum, o)
			check(err != nil, "partly overlapping buffers accepted")
			check(sameBits(in, keep), "a refused call wrote in")
		}
		if bad != nil {
			return bad
		}
		mu.Lock()
		results[c.Rank()] = out
		mu.Unlock()
		return nil
	})
	for r := 1; r < p; r++ {
		if !sameBits(results[r], results[0]) {
			t.Fatalf("rank %d's result differs from rank 0's", r)
		}
	}
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}
