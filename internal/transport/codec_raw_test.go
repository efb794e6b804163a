package transport

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// wireSliceValues builds the test corpus for every slice type registered
// by the package's own init: nil, empty, and a few randomly sized values.
func wireSliceValues(rng *rand.Rand) []any {
	sized := func(n int) []any {
		f32 := make([]float32, n)
		f64 := make([]float64, n)
		i32 := make([]int32, n)
		i64 := make([]int64, n)
		ints := make([]int, n)
		u8 := make([]uint8, n)
		u32 := make([]uint32, n)
		u64 := make([]uint64, n)
		bo := make([]bool, n)
		st := make([]string, n)
		pid := make([]ProcID, n)
		for i := 0; i < n; i++ {
			f32[i] = float32(rng.NormFloat64())
			f64[i] = rng.NormFloat64()
			i32[i] = int32(rng.Uint64())
			i64[i] = int64(rng.Uint64())
			ints[i] = int(int64(rng.Uint64()))
			u8[i] = uint8(rng.Uint64())
			u32[i] = uint32(rng.Uint64())
			u64[i] = rng.Uint64()
			bo[i] = rng.Intn(2) == 1
			st[i] = string(rune('a' + rng.Intn(26)))
			pid[i] = ProcID(rng.Intn(100))
		}
		return []any{f32, f64, i32, i64, ints, u8, u32, u64, bo, st, pid}
	}
	out := []any{
		[]float32(nil), []float64(nil), []int32(nil), []int64(nil), []int(nil),
		[]uint8(nil), []uint32(nil), []uint64(nil), []bool(nil), []string(nil), []ProcID(nil),
	}
	out = append(out, sized(0)...)
	out = append(out, sized(1)...)
	out = append(out, sized(rng.Intn(500)+2)...)
	return out
}

// Property: for every type the package registers in RegisterWireType, the
// raw codec round-trips to exactly the value the gob envelope produces —
// including nil and empty slices, which gob decodes to typed nil.
func TestRawMatchesGobProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for _, v := range wireSliceValues(rng) {
			rawBytes, err := EncodePayload(v)
			if err != nil {
				t.Logf("%T: raw-path encode: %v", v, err)
				return false
			}
			gobBytes, err := appendGob(nil, v)
			if err != nil {
				t.Logf("%T: gob encode: %v", v, err)
				return false
			}
			fromRaw, err := DecodePayload(rawBytes)
			if err != nil {
				t.Logf("%T: raw-path decode: %v", v, err)
				return false
			}
			fromGob, err := DecodePayload(gobBytes)
			if err != nil {
				t.Logf("%T: gob decode: %v", v, err)
				return false
			}
			if !reflect.DeepEqual(fromRaw, fromGob) {
				t.Logf("%T: raw %#v != gob %#v", v, fromRaw, fromGob)
				return false
			}
			if reflect.TypeOf(fromRaw) != reflect.TypeOf(v) {
				t.Logf("%T: decoded as %T", v, fromRaw)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestRawFastPathIsUsed(t *testing.T) {
	numeric := []any{
		[]float32{1}, []float64{1}, []int32{1}, []int64{1}, []int{1},
		[]uint8{1}, []uint32{1}, []uint64{1}, []bool{true}, []ProcID{1},
	}
	for _, v := range numeric {
		b, err := EncodePayload(v)
		if err != nil {
			t.Fatalf("%T: %v", v, err)
		}
		if b[0] != fmtRaw {
			t.Errorf("%T: encoded with format %#02x, want raw", v, b[0])
		}
	}
	// Strings (and any registered struct) fall back to the gob envelope.
	b, err := EncodePayload([]string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	if b[0] != fmtGob {
		t.Errorf("[]string encoded with format %#02x, want gob", b[0])
	}
}

// Cross-decoding: raw bytes handed to the gob path and gob bytes handed to
// the raw path must be rejected cleanly, never misparsed.
func TestRawGobCrossDecodeRejected(t *testing.T) {
	rawBytes, err := EncodePayload([]float32{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	gobBytes, err := appendGob(nil, []float32{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeGob(rawBytes); err == nil {
		t.Error("gob path accepted raw-encoded bytes")
	}
	if _, err := decodeRaw(gobBytes); err == nil {
		t.Error("raw path accepted gob-encoded bytes")
	}
}

func TestRawDecodeCorrupt(t *testing.T) {
	good, err := EncodePayload([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"truncated header": good[:rawHeaderLen-1],
		"truncated body":   good[:len(good)-3],
		"trailing junk":    append(append([]byte(nil), good...), 0xab),
		"bad type tag":     append([]byte{fmtRaw, 0x7f}, good[2:]...),
		"retired tag 0x0c": append([]byte{fmtRaw, 0x0c}, good[2:]...),
		"count overflow": func() []byte {
			b := append([]byte(nil), good...)
			for i := 2; i < 10; i++ {
				b[i] = 0xff
			}
			return b
		}(),
	}
	for name, b := range cases {
		if _, err := DecodePayload(b); err == nil {
			t.Errorf("%s: corrupt raw payload decoded without error", name)
		}
	}
}

// FuzzDecodePayload holds the two receive-side decoders to one contract
// on arbitrary bytes: DecodePayload returns an error or a value and never
// panics; ParseRawPayload wraps exactly the raw payloads DecodePayload
// accepts; a wrapped payload's views match its element count, its Decode
// equals DecodePayload, and its release callback runs exactly once. The
// seeds in testdata/fuzz/FuzzDecodePayload cover every raw tag, the
// retired tag 0x0c, gob envelopes and the malformed shapes.
func FuzzDecodePayload(f *testing.F) {
	seed, err := EncodePayload([]float32{1, 2})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, b []byte) {
		want, decErr := DecodePayload(b)
		released := 0
		p, ok, parseErr := ParseRawPayload(b, func() { released++ })
		raw := len(b) > 0 && b[0] == fmtRaw
		if ok != (raw && decErr == nil) {
			t.Fatalf("ParseRawPayload ok=%v (err %v), DecodePayload err %v", ok, parseErr, decErr)
		}
		if parseErr != nil && decErr == nil {
			t.Fatalf("ParseRawPayload rejected (%v) what DecodePayload accepted", parseErr)
		}
		if !ok {
			if released != 0 {
				t.Fatalf("rejected payload ran its release callback %d times", released)
			}
			return
		}
		views := map[string]int{}
		if v, ok := p.AsF16(); ok {
			views["F16"] = len(v)
		}
		if v, ok := RawPayloadView[uint8](p); ok {
			views["uint8"] = len(v)
		}
		if v, ok := RawPayloadView[float32](p); ok {
			views["float32"] = len(v)
		}
		if v, ok := RawPayloadView[int64](p); ok {
			views["int64"] = len(v)
		}
		for name, n := range views {
			if n != p.Elems() {
				t.Fatalf("%s view has %d elements, payload declares %d", name, n, p.Elems())
			}
		}
		got, err := p.Decode()
		if err != nil {
			t.Fatalf("Decode of a parsed payload: %v", err)
		}
		p.Release()
		if !reflect.DeepEqual(got, want) && !sameBits(t, got, want) {
			t.Fatalf("Decode = %#v, DecodePayload = %#v", got, want)
		}
		if released != 1 {
			t.Fatalf("release callback ran %d times, want 1", released)
		}
	})
}

// sameBits reports whether two decoded values have the same type and
// encode to the same bytes: DeepEqual's verdict, except that a float NaN
// equals itself.
func sameBits(t *testing.T, a, b any) bool {
	ea, err := EncodePayload(a)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := EncodePayload(b)
	if err != nil {
		t.Fatal(err)
	}
	return reflect.TypeOf(a) == reflect.TypeOf(b) && bytes.Equal(ea, eb)
}

// AppendPayload must append in place when capacity allows, so pooled frame
// buffers absorb the encoding without a second allocation.
func TestAppendPayloadInPlace(t *testing.T) {
	dst := make([]byte, 8, 4096)
	out, err := AppendPayload(dst, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if &out[0] != &dst[0] {
		t.Error("AppendPayload reallocated despite sufficient capacity")
	}
	dec, err := DecodePayload(out[8:])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec, []float64{1, 2, 3}) {
		t.Fatalf("round-trip = %#v", dec)
	}
}
