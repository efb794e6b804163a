package mpi

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// fp16GoldenCases pins the exact output of every fp16 allreduce schedule:
// a SHA-256 of each rank's result, recorded before the binary16 kernels
// were rewritten. Any change to how a value is rounded, decoded or
// combined — in one element of one schedule — changes a hash. Regenerate
// only for an intended change of the numbers, never to make a kernel
// change pass.
var fp16GoldenCases = []struct {
	algo       AllreduceAlgo
	nodes, ppn int
	op         Op
	f32, f64   string // sha256 of every rank's result, per element type
}{
	{AlgoRing, 1, 3, OpSum,
		"706fde1d7bb660bd5f333667e56170fb4413b90e8fd6af2c3fa9861f0aef3ce0",
		"d5221052bc2de602b30e5f412ea643be8bf659598db72a1e2f18444a324ff2f0"},
	{AlgoRing, 5, 1, OpSum,
		"9d4cc1c533be559b1744c04c52ca53c47ec3b8fe637feaad2f20f35df079cb75",
		"a5eeb6794aabd21062caa7a5e37e15a802d56e6b9f1e453723fec8b1c54395dc"},
	{AlgoRing, 2, 3, OpSum,
		"0e4228712d9f98adb9372b65c0087ead684d156a2321a2a470ff96297952d206",
		"1fb165eb5cf3863fd1d081cd906770a4e538fd96d7aa88e0f15988420110157b"},
	{AlgoPipelinedRing, 1, 3, OpSum,
		"706fde1d7bb660bd5f333667e56170fb4413b90e8fd6af2c3fa9861f0aef3ce0",
		"d5221052bc2de602b30e5f412ea643be8bf659598db72a1e2f18444a324ff2f0"},
	{AlgoPipelinedRing, 5, 1, OpSum,
		"9d4cc1c533be559b1744c04c52ca53c47ec3b8fe637feaad2f20f35df079cb75",
		"a5eeb6794aabd21062caa7a5e37e15a802d56e6b9f1e453723fec8b1c54395dc"},
	{AlgoPipelinedRing, 2, 3, OpSum,
		"0e4228712d9f98adb9372b65c0087ead684d156a2321a2a470ff96297952d206",
		"1fb165eb5cf3863fd1d081cd906770a4e538fd96d7aa88e0f15988420110157b"},
	{AlgoRecursiveDoubling, 1, 3, OpSum,
		"5a46ab9e80a8dc2c8cb10ca6c9865f631204c15f838b613fe7c1cfb882c7ddc1",
		"1bff16dd323944f23f94397af54a26e7a5e76767065e215c0629300705ba5833"},
	{AlgoRecursiveDoubling, 5, 1, OpSum,
		"6d6129599b91a36dedf30dd89eab07e891bb6b7a2e2bf31f301f1f99558cd2d4",
		"ddddd9712b3469627bf90277b7b55042fc3ce5d191cf906fbf250b13b23d4ef0"},
	{AlgoRecursiveDoubling, 2, 3, OpSum,
		"44e35525bdc3fba935cf8fd48d6db5aa79209e0153626cf53756ffadc970d2d9",
		"714fa17bec9a328367274913b3a38ef32e88767e77ea961b10cf6c11e69ab4e5"},
	{AlgoHierarchical, 1, 3, OpSum,
		"3b612a7b556cf11fda8ed4d3c6d04df4625707e08e55e2141263d559f643065c",
		"9402667790e02f28b8896015e1e60bd5a692aacf429b1c9b044f3c0e583bae43"},
	{AlgoHierarchical, 1, 5, OpSum,
		"9bc91ace78db7a1e3b5f42f5f9112dd01b322127eaaadf80beb5f67166c4122e",
		"0c6d8459a9e34f0284198e4467d1944a34821f1c263e404cd2f630c55d285155"},
	{AlgoHierarchical, 2, 3, OpSum,
		"83858d56c6f803e64bb62cf829caa64935e6e451241e765e175e5b03f742663e",
		"20cd43ae654fae58de9d65b7a590e01387dc8339c7170bc88aa21910be686946"},
	{AlgoRing, 5, 1, OpProd,
		"1b48c1ec9be03a5795eef4c40224327d495c402d0c4449d87abf23e87a46be5d",
		"41f6bb5822190c81233ed5c43a937d5af10749cebaf813635506ba5ea71af6a5"},
	{AlgoRing, 5, 1, OpMax,
		"08aeab47e8a28bb4a9dd551d78985f009f856fa6161ad9dc9e8d91a45381036f",
		"12ef6eeacac0c9b9de8b452bb010c07f6cb4c68ca14251b5d5725d4c06615f7d"},
	{AlgoRing, 5, 1, OpMin,
		"9680d5ce1d6edec0de2a88feefae6ef60a81d288a298b9ba3d4eaabf0129e6d3",
		"cbedcf7effc87ae604568e1280866f42ef692c05a71dd00e62dcf8a09f0318d0"},
}

// fp16GoldenInput is rank's seeded input: mostly normal values spread
// over the binary16 range, plus binary16 subnormals, values exactly on
// and next to rounding ties, ±65504, values that overflow to ±Inf,
// signed zeros and float32-subnormal or float32-overflowing float64s.
func fp16GoldenInput(rank, n int) []float64 {
	specials := []float64{
		0, math.Copysign(0, -1), 65504, -65504, 65519, 65520, -65520, 1e5, -1e6,
		0x1p-24, -0x1p-24, 0x1p-25, 0x1.8p-25, -0x1p-26, 0x1p-14, 0x1.ff8p-15,
		1e-40, -1e-45, 1e300, -1e300, 1e-300,
	}
	rng := rand.New(rand.NewSource(int64(4242 + rank)))
	v := make([]float64, n)
	for i := range v {
		switch rng.Intn(16) {
		case 0:
			v[i] = specials[rng.Intn(len(specials))]
		case 1, 2:
			v[i] = (rng.Float64()*2 - 1) * 0x1p-14 // binary16 subnormal range
		case 3, 4:
			// A float32 whose low 13 mantissa bits sit at or next to
			// the binary16 rounding tie.
			low := []uint32{0, 0xfff, 0x1000, 0x1001, 0x1fff}[rng.Intn(5)]
			b := uint32(rng.Intn(2))<<31 | uint32(103+rng.Intn(40))<<23 | uint32(rng.Intn(1<<10))<<13 | low
			v[i] = float64(math.Float32frombits(b))
		default:
			v[i] = rng.NormFloat64() * math.Ldexp(1, rng.Intn(36)-24)
		}
	}
	return v
}

// fp16ResultHash hashes a result's bits. NaN payloads are canonical:
// which NaN an Inf-Inf produces is the FPU's choice, not the codec's.
func fp16ResultHash[T float32 | float64](v []T) string {
	h := sha256.New()
	var b [8]byte
	for _, x := range v {
		if math.IsNaN(float64(x)) {
			x = T(math.NaN())
		}
		switch any(x).(type) {
		case float32:
			binary.LittleEndian.PutUint32(b[:4], math.Float32bits(float32(x)))
			h.Write(b[:4])
		default:
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(float64(x)))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runFP16Golden runs one fp16 allreduce case and returns every rank's
// result hash, in rank order.
func runFP16Golden[T float32 | float64](t *testing.T, algo AllreduceAlgo, nodes, ppn int, op Op) []string {
	const elems = 9001 // uneven across every world size here
	hashes := make([]string, nodes*ppn)
	var mu sync.Mutex
	world(t, nodes, ppn, func(c *Comm) error {
		in := fp16GoldenInput(c.Rank(), elems)
		data := make([]T, elems)
		for i, x := range in {
			data[i] = T(x)
		}
		opts := AllreduceOptions{Algo: algo, Chunks: DefaultPipelineChunks, Codec: CodecFP16}
		if err := AllreduceOpts(c, data, op, opts); err != nil {
			return err
		}
		mu.Lock()
		hashes[c.Rank()] = fp16ResultHash(data)
		mu.Unlock()
		return nil
	})
	return hashes
}

// TestFP16GoldenOutputs: every fp16 schedule reproduces its recorded
// result bit for bit, on every rank, for float32 and float64 tensors.
func TestFP16GoldenOutputs(t *testing.T) {
	for _, tc := range fp16GoldenCases {
		for _, typ := range []string{"f32", "f64"} {
			name := fmt.Sprintf("%v/%v/world%d/%s", tc.algo, tc.op, tc.nodes*tc.ppn, typ)
			t.Run(name, func(t *testing.T) {
				var got []string
				want := tc.f32
				if typ == "f32" {
					got = runFP16Golden[float32](t, tc.algo, tc.nodes, tc.ppn, tc.op)
				} else {
					got = runFP16Golden[float64](t, tc.algo, tc.nodes, tc.ppn, tc.op)
					want = tc.f64
				}
				for r, h := range got {
					if h != want {
						t.Errorf("rank %d: result sha256 %s, want %s", r, h, want)
					}
				}
			})
		}
	}
}
