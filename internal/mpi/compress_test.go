package mpi

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/transport"
)

// One fp16 quantization hop must stay within the documented bound:
// 2^-11 relative for the normal binary16 range, flush-to-zero below,
// saturate above.
func TestF16OneHopErrorBound(t *testing.T) {
	f := func(x float32) bool {
		if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
			return true
		}
		q := []float32{x}
		transport.QuantizeF16(q)
		got := q[0]
		ax := math.Abs(float64(x))
		switch {
		case ax < 0x1p-14: // subnormal range: absolute error within one subnormal step
			return math.Abs(float64(got)-float64(x)) <= 0x1p-24
		case ax > 65504: // overflow saturates
			return math.IsInf(float64(got), 0) || math.Abs(float64(got)) == 65504
		default:
			return math.Abs(float64(got)-float64(x)) <= 0x1p-11*ax
		}
	}
	cfg := &quick.Config{
		MaxCount: 20000,
		Values: func(vs []reflect.Value, r *rand.Rand) {
			// Spread across the whole dynamic range, not just N(0,1):
			// mantissa * 2^[-20, 20).
			vs[0] = reflect.ValueOf(float32(r.Float64()*2-1) * float32(math.Pow(2, float64(r.Intn(40)-20))))
		},
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Quantize-on-send must be idempotent: the sender rewrites its range to
// the decoded values, so re-encoding yields bit-identical wire payloads
// (the uniformity property every fp16 send leans on).
func TestF16CompressIdempotent(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	src := make([]float32, 4096)
	for i := range src {
		src[i] = float32(r.NormFloat64()) * float32(math.Pow(2, float64(r.Intn(30)-15)))
	}
	first := make(transport.F16, len(src))
	transport.EncodeQuantizeF16(first, src)
	snapshot := append([]float32(nil), src...)
	second := make(transport.F16, len(src))
	transport.EncodeQuantizeF16(second, src)
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("elem %d: wire bits %04x then %04x — fp16 re-encode not idempotent", i, first[i], second[i])
		}
		if src[i] != snapshot[i] {
			t.Fatalf("elem %d: second compress moved the value %v -> %v", i, snapshot[i], src[i])
		}
	}
}

// The codec flag spellings accepted by elasticd -codec.
func TestParseWireCodec(t *testing.T) {
	for spelling, want := range map[string]WireCodec{
		"": CodecRaw, "raw": CodecRaw, "none": CodecRaw,
		"fp16": CodecFP16, "F16": CodecFP16, "half": CodecFP16,
	} {
		got, err := ParseWireCodec(spelling)
		if err != nil || got != want {
			t.Errorf("ParseWireCodec(%q) = %v, %v; want %v", spelling, got, err, want)
		}
	}
	// int8 and q8 were retired spellings; they must not parse now.
	for _, spelling := range []string{"zstd", "int8", "q8"} {
		if _, err := ParseWireCodec(spelling); err == nil {
			t.Errorf("ParseWireCodec accepted unknown codec %q", spelling)
		}
	}
}

// allreduceBuf must apply fp16 only to base float slices;
// integers always travel lossless no matter what was requested.
func TestAllreduceBufCodecSelection(t *testing.T) {
	if _, ok := allreduceBuf(make([]float32, 4), make([]float32, 4), CodecFP16, nil).(*compBuf[float32]); !ok {
		t.Error("float32 + fp16 did not build a compressed buffer")
	}
	if _, ok := allreduceBuf(make([]float64, 4), make([]float64, 4), CodecFP16, nil).(*compBuf[float64]); !ok {
		t.Error("float64 + fp16 did not build a compressed buffer")
	}
	if _, ok := allreduceBuf(make([]int64, 4), make([]int64, 4), CodecFP16, nil).(numBuf[int64]); !ok {
		t.Error("int64 + fp16 did not fall back to the lossless buffer")
	}
	if _, ok := allreduceBuf(make([]float32, 4), make([]float32, 4), CodecRaw, nil).(numBuf[float32]); !ok {
		t.Error("float32 + raw did not use the lossless buffer")
	}
}

// End-to-end: a compressed allreduce over a full schedule must land
// within the multi-hop bound and — the ULFM prerequisite — bit-identical
// on every rank.
func TestAllreduceCompressedEndToEnd(t *testing.T) {
	const elems = 40000 // > smallThreshold bytes, uneven across world 6
	for _, tc := range []struct {
		name  string
		codec WireCodec
		algo  AllreduceAlgo
	}{
		{"fp16-ring", CodecFP16, AlgoRing},
		{"fp16-pipelined", CodecFP16, AlgoPipelinedRing},
		{"fp16-recdouble", CodecFP16, AlgoRecursiveDoubling},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const nodes, ppn = 2, 3
			world_ := nodes * ppn
			inputs := make([][]float32, world_)
			exact := make([]float64, elems)
			for r := 0; r < world_; r++ {
				rng := rand.New(rand.NewSource(int64(100 + r)))
				inputs[r] = make([]float32, elems)
				for i := range inputs[r] {
					inputs[r][i] = float32(rng.NormFloat64())
					exact[i] += float64(inputs[r][i])
				}
			}
			sumAbs := make([]float64, elems)
			for r := 0; r < world_; r++ {
				for i, v := range inputs[r] {
					sumAbs[i] += math.Abs(float64(v))
				}
			}
			var mu sync.Mutex
			results := make(map[int][]float32)
			world(t, nodes, ppn, func(c *Comm) error {
				data := append([]float32(nil), inputs[c.Rank()]...)
				opts := AllreduceOptions{Algo: tc.algo, Chunks: DefaultPipelineChunks, Codec: tc.codec}
				if err := AllreduceOpts(c, data, OpSum, opts); err != nil {
					return err
				}
				mu.Lock()
				results[c.Rank()] = data
				mu.Unlock()
				return nil
			})
			// Uniformity: every rank must hold bit-identical results.
			for r := 1; r < world_; r++ {
				for i := range results[0] {
					if math.Float32bits(results[r][i]) != math.Float32bits(results[0][i]) {
						t.Fatalf("rank %d elem %d = %v, rank 0 has %v — ranks diverged", r, i, results[r][i], results[0][i])
					}
				}
			}
			// Accuracy: generous multi-hop bounds (hops ≤ world+1 for the
			// ring family, ≤ 2·log2(world) for recursive doubling).
			for i, got := range results[0] {
				bound := float64(world_+2) * 0x1p-11 * sumAbs[i]
				bound += 1e-6 // float32 accumulation noise for near-zero sums
				if e := math.Abs(float64(got) - exact[i]); e > bound {
					t.Fatalf("elem %d: |%v - %v| = %v exceeds bound %v", i, got, exact[i], e, bound)
				}
			}
		})
	}
}

// A lossless AllreduceOpts run must be bit-identical to the seed
// Allreduce entry point — opting into the new data plane with CodecRaw
// changes nothing about the numbers.
func TestAllreduceOptsRawMatchesAllreduce(t *testing.T) {
	const elems = 33000 // > smallThreshold bytes
	const nodes, ppn = 2, 2
	world_ := nodes * ppn
	inputs := make([][]float32, world_)
	for r := 0; r < world_; r++ {
		rng := rand.New(rand.NewSource(int64(7 + r)))
		inputs[r] = make([]float32, elems)
		for i := range inputs[r] {
			inputs[r][i] = float32(rng.NormFloat64())
		}
	}
	run := func(algo AllreduceAlgo, viaOpts bool) map[int][]float32 {
		var mu sync.Mutex
		results := make(map[int][]float32)
		world(t, nodes, ppn, func(c *Comm) error {
			data := append([]float32(nil), inputs[c.Rank()]...)
			var err error
			if viaOpts {
				err = AllreduceOpts(c, data, OpSum, AllreduceOptions{Algo: algo})
			} else {
				err = Allreduce(c, data, OpSum)
			}
			if err != nil {
				return err
			}
			mu.Lock()
			results[c.Rank()] = data
			mu.Unlock()
			return nil
		})
		return results
	}
	seed := run(AlgoAuto, false)
	for _, algo := range []AllreduceAlgo{AlgoAuto, AlgoRing} {
		got := run(algo, true)
		for r := 0; r < world_; r++ {
			for i := range seed[r] {
				if math.Float32bits(got[r][i]) != math.Float32bits(seed[r][i]) {
					t.Fatalf("algo %v rank %d elem %d: AllreduceOpts %v != seed Allreduce %v",
						algo, r, i, got[r][i], seed[r][i])
				}
			}
		}
	}
}

// A lazy fp16 payload whose body cannot be viewed in place — here parsed
// from an odd offset, as on a big-endian host or from an arbitrary byte
// slice — must still decode into the buffer and release its bytes once.
func TestCompBufUnviewableF16Payload(t *testing.T) {
	want := []float32{1, -2, 0.5, 65504, float32(math.Inf(-1))}
	bits := make(transport.F16, len(want))
	transport.EncodeF16(bits, want)
	enc, err := transport.EncodePayload(bits)
	if err != nil {
		t.Fatal(err)
	}
	lazy := func(t *testing.T, released *int) *transport.RawPayload {
		odd := make([]byte, len(enc)+1)[1:]
		copy(odd, enc)
		p, ok, err := transport.ParseRawPayload(odd, func() { *released++ })
		if !ok || err != nil {
			t.Fatalf("parse: ok %v err %v", ok, err)
		}
		if _, ok := p.AsF16(); ok {
			t.Skip("payload body viewable at an odd offset")
		}
		return p
	}
	check := func(t *testing.T, got []float64, released int) {
		t.Helper()
		for i := range want {
			if got[i] != float64(want[i]) {
				t.Fatalf("elem %d = %v, want %v", i, got[i], want[i])
			}
		}
		if released != 1 {
			t.Fatalf("payload released %d times, want once", released)
		}
	}
	t.Run("setIn", func(t *testing.T) {
		var released int
		b := &compBuf[float64]{v: make([]float64, len(want))}
		b.setIn(0, len(want), lazy(t, &released))
		check(t, b.v, released)
	})
	t.Run("reduceIn", func(t *testing.T) {
		var released int
		v := make([]float64, len(want))
		b := &compBuf[float64]{in: v, v: v}
		b.reduceIn(0, len(want), lazy(t, &released), OpSum)
		check(t, b.v, released)
	})
}
