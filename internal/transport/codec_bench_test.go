package transport

import (
	"fmt"
	"testing"
)

// BenchmarkCodecNumericSlices measures the raw codec's encode + decode
// round trip on the payload shapes the collectives actually move. Run
// with -benchmem: each round trip should cost one allocation per side.
func BenchmarkCodecNumericSlices(b *testing.B) {
	sizes := []int{1 << 10, 64 << 10, 256 << 10}
	for _, n := range sizes {
		f32 := make([]float32, n)
		f64 := make([]float64, n/2)
		i64 := make([]int64, n/2)
		for i := range f32 {
			f32[i] = float32(i) * 0.5
		}
		for i := range f64 {
			f64[i] = float64(i) * 0.25
			i64[i] = int64(i)
		}
		payloads := []struct {
			name string
			v    any
		}{
			{fmt.Sprintf("float32-%dk", n>>10), f32},
			{fmt.Sprintf("float64-%dk", n>>11), f64},
			{fmt.Sprintf("int64-%dk", n>>11), i64},
		}
		for _, p := range payloads {
			b.Run(p.name, func(b *testing.B) {
				benchCodec(b, p.v)
			})
		}
	}
}

func benchCodec(b *testing.B, v any) {
	b.ReportAllocs()
	enc, err := EncodePayload(v)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(enc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc, err := EncodePayload(v)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := DecodePayload(enc); err != nil {
			b.Fatal(err)
		}
	}
}
