package transport

import (
	"flag"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
)

var f16Exhaustive = flag.Bool("f16.exhaustive", false,
	"check the binary16 encoder against the reference on all 2^32 float32 inputs (make fp16-exhaustive)")

// refFloat16Bits is the reference binary16 encoder the kernels must
// match bit for bit: a branchy scalar round-to-nearest-even. Values
// beyond ±65504 overflow to ±Inf, NaN maps to a quiet NaN of the same
// sign, and magnitudes below 2^-24 flush to signed zero.
func refFloat16Bits(f float32) uint16 {
	b := math.Float32bits(f)
	sign := uint16(b >> 16 & 0x8000)
	exp := int32(b>>23&0xff) - 127 + 15
	man := b & 0x7fffff
	switch {
	case exp >= 0x1f:
		if b&0x7fffffff > 0x7f800000 {
			return sign | 0x7e00 // NaN
		}
		return sign | 0x7c00 // Inf (including overflow)
	case exp <= 0:
		if exp < -10 {
			return sign // underflow to signed zero
		}
		man |= 0x800000
		shift := uint32(14 - exp) // exp in [-10, 0] → shift in [14, 24]
		half := man >> shift
		rem := man & (1<<shift - 1)
		halfway := uint32(1) << (shift - 1)
		if rem > halfway || (rem == halfway && half&1 == 1) {
			half++
		}
		return sign | uint16(half)
	default:
		half := uint16(exp)<<10 | uint16(man>>13)
		rem := man & 0x1fff
		if rem > 0x1000 || (rem == 0x1000 && half&1 == 1) {
			half++ // mantissa carry may roll into the exponent; 0x7c00 is Inf, which is correct
		}
		return sign | half
	}
}

// refFloat16From is the reference binary16 decoder: exact, by
// normalizing subnormals one shift at a time.
func refFloat16From(h uint16) float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h >> 10 & 0x1f)
	man := uint32(h & 0x3ff)
	switch {
	case exp == 0:
		if man == 0 {
			return math.Float32frombits(sign)
		}
		e := uint32(113) // normalize a binary16 subnormal into float32
		for man&0x400 == 0 {
			man <<= 1
			e--
		}
		return math.Float32frombits(sign | e<<23 | (man&0x3ff)<<13)
	case exp == 0x1f:
		return math.Float32frombits(sign | 0x7f800000 | man<<13)
	default:
		return math.Float32frombits(sign | (exp+112)<<23 | man<<13)
	}
}

// Every binary16 input decodes to the reference's exact float32 bits,
// NaN payloads included, through the table and through DecodeF16 at
// both widths.
func TestF16DecodeAllInputs(t *testing.T) {
	src := make(F16, 1<<16)
	for h := range src {
		src[h] = uint16(h)
	}
	f32 := make([]float32, len(src))
	f64 := make([]float64, len(src))
	DecodeF16(f32, src)
	DecodeF16(f64, src)
	table := Float16Table()
	for h := range src {
		want := refFloat16From(uint16(h))
		if got := table[h]; math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("table[%#04x] = %#08x, want %#08x", h, math.Float32bits(got), math.Float32bits(want))
		}
		if math.Float32bits(f32[h]) != math.Float32bits(want) {
			t.Fatalf("DecodeF16 float32 %#04x = %#08x, want %#08x", h, math.Float32bits(f32[h]), math.Float32bits(want))
		}
		if w := float64(want); math.Float64bits(f64[h]) != math.Float64bits(w) {
			t.Fatalf("DecodeF16 float64 %#04x = %v, want %v", h, f64[h], w)
		}
	}
}

// f16KernelMismatch runs every encoding kernel over in and compares each
// element with the reference: EncodeF16 and EncodeQuantizeF16 give its
// bits, EncodeQuantizeF16 and QuantizeF16 leave its decoded value. It
// describes the first mismatch, or returns "". The scratch slices are
// the caller's, as long as in.
func f16KernelMismatch(in []float32, enc, encQ F16, quant []float32) string {
	copy(quant, in)
	EncodeF16(enc, in)
	EncodeQuantizeF16(encQ, quant)
	for i, x := range in {
		want := refFloat16Bits(x)
		if enc[i] != want || encQ[i] != want {
			return fmt.Sprintf("encode %#08x: EncodeF16 %#04x, EncodeQuantizeF16 %#04x, want %#04x",
				math.Float32bits(x), enc[i], encQ[i], want)
		}
		if got, want := math.Float32bits(quant[i]), math.Float32bits(refFloat16From(want)); got != want {
			return fmt.Sprintf("EncodeQuantizeF16 %#08x left %#08x, want %#08x", math.Float32bits(x), got, want)
		}
	}
	copy(quant, in)
	QuantizeF16(quant)
	for i, x := range in {
		if got, want := math.Float32bits(quant[i]), math.Float32bits(refFloat16From(refFloat16Bits(x))); got != want {
			return fmt.Sprintf("QuantizeF16 %#08x = %#08x, want %#08x", math.Float32bits(x), got, want)
		}
	}
	return ""
}

// The encoders match the reference on every sign and exponent, with
// the mantissa at and around each rounding boundary, and on NaN
// payloads. The boundary sits at bit 13 in the normal range and moves
// up one bit per binade through the subnormals, so both positions are
// swept: every kept mantissa with each of the dropped-bit patterns zero,
// just below half, half, just above half and all ones.
func TestF16EncodeBoundaries(t *testing.T) {
	var in []float32
	for sign := uint32(0); sign < 2; sign++ {
		for exp := uint32(0); exp < 0xff; exp++ {
			for _, m := range []uint32{0, 1, 0x400000, 0x7fffff} {
				in = append(in, math.Float32frombits(sign<<31|exp<<23|m))
			}
			for _, drop := range []uint32{13, uint32(min(max(126-int32(exp), 13), 23))} {
				half := uint32(1) << (drop - 1)
				for kept := uint32(0); kept < 1<<(23-drop); kept++ {
					for _, low := range []uint32{0, half - 1, half, half + 1, 2*half - 1} {
						in = append(in, math.Float32frombits(sign<<31|exp<<23|kept<<drop|low))
					}
				}
			}
		}
		for _, payload := range []uint32{0, 1, 0x1fff, 0x2000, 0x200000, 0x3fffff, 0x400000, 0x7fffff} {
			in = append(in, math.Float32frombits(sign<<31|0x7f800000|payload))
		}
	}
	n := len(in)
	if msg := f16KernelMismatch(in, make(F16, n), make(F16, n), make([]float32, n)); msg != "" {
		t.Fatal(msg)
	}

	// float64 inputs narrow to float32 first, rounding once there:
	// halfway between two float32s near a binary16 tie, and past the
	// float32 range at both ends.
	f64 := []float64{1e300, -1e300, 1e-300, -1e-300, math.Inf(1), math.NaN(),
		1 + 0x1p-11 + 0x1p-24 + 0x1p-40, 1 + 0x1p-11 + 0x1p-24, 65519.999, 0x1p-25 + 0x1p-60}
	want := make([]float32, len(f64))
	for i, x := range f64 {
		want[i] = float32(x)
	}
	got, ref := make(F16, len(f64)), make(F16, len(f64))
	EncodeF16(got, f64)
	EncodeF16(ref, want)
	q := append([]float64(nil), f64...)
	QuantizeF16(q)
	for i := range f64 {
		if got[i] != ref[i] || got[i] != refFloat16Bits(want[i]) {
			t.Fatalf("float64 %v: encoded %#04x, want %#04x", f64[i], got[i], refFloat16Bits(want[i]))
		}
		if w := float64(refFloat16From(got[i])); math.Float64bits(q[i]) != math.Float64bits(w) && !math.IsNaN(w) {
			t.Fatalf("float64 %v: quantized to %v, want %v", f64[i], q[i], w)
		}
	}
}

// The full sweep: all 2^32 float32 bit patterns through every encoding
// kernel, split across GOMAXPROCS. Tens of seconds on two cores, so it
// runs only under -f16.exhaustive.
func TestF16EncodeExhaustive(t *testing.T) {
	if !*f16Exhaustive {
		t.Skip("run with -f16.exhaustive (make fp16-exhaustive)")
	}
	const block = 1 << 16
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			in := make([]float32, block)
			enc, encQ, quant := make(F16, block), make(F16, block), make([]float32, block)
			for hi := uint32(w); hi < 1<<16; hi += uint32(workers) {
				for lo := range in {
					in[lo] = math.Float32frombits(hi<<16 | uint32(lo))
				}
				if msg := f16KernelMismatch(in, enc, encQ, quant); msg != "" {
					t.Error(msg)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
