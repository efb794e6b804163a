package transport

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// wireSliceValues builds the test corpus for every raw element type:
// nil, empty, and a few randomly sized values.
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
		pid := make([]ProcID, n)
		f16 := make(F16, n)
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
			pid[i] = ProcID(rng.Intn(100))
			f16[i] = uint16(rng.Uint64())
		}
		return []any{f32, f64, i32, i64, ints, u8, u32, u64, bo, pid, f16}
	}
	out := []any{
		[]float32(nil), []float64(nil), []int32(nil), []int64(nil), []int(nil),
		[]uint8(nil), []uint32(nil), []uint64(nil), []bool(nil), []ProcID(nil), F16(nil),
	}
	out = append(out, sized(0)...)
	out = append(out, sized(1)...)
	out = append(out, sized(rng.Intn(500)+2)...)
	return out
}

// referenceEncode writes the raw format with encoding/binary, one value
// at a time, from the wire tags as numbers: an encoder that shares no
// code with the codec, so the property below pins the format itself.
func referenceEncode(t *testing.T, v any) []byte {
	var tag byte
	var elems any
	switch s := v.(type) {
	case []float32:
		tag, elems = 1, s
	case []float64:
		tag, elems = 2, s
	case []int32:
		tag, elems = 3, s
	case []int64:
		tag, elems = 4, s
	case []uint8:
		tag, elems = 5, s
	case []uint32:
		tag, elems = 6, s
	case []uint64:
		tag, elems = 7, s
	case []int:
		w := make([]int64, len(s))
		for i, x := range s {
			w[i] = int64(x)
		}
		tag, elems = 8, w
	case []bool:
		tag, elems = 9, s
	case []ProcID:
		w := make([]int64, len(s))
		for i, x := range s {
			w[i] = int64(x)
		}
		tag, elems = 10, w
	case F16:
		tag, elems = 11, []uint16(s)
	default:
		t.Fatalf("no reference encoding for %T", v)
	}
	var buf bytes.Buffer
	buf.Write([]byte{0x02, tag})
	if err := binary.Write(&buf, binary.LittleEndian, uint64(reflect.ValueOf(v).Len())); err != nil {
		t.Fatal(err)
	}
	if err := binary.Write(&buf, binary.LittleEndian, elems); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Property: for every raw element type, the codec encodes exactly the
// reference bytes, and decodes them back to the value it was given —
// nil and empty slices both to a typed nil.
func TestRawMatchesBinaryReferenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for _, v := range wireSliceValues(rng) {
			got, err := EncodePayload(v)
			if err != nil {
				t.Logf("%T: encode: %v", v, err)
				return false
			}
			ref := referenceEncode(t, v)
			if !bytes.Equal(got, ref) {
				t.Logf("%T: encoded % x, reference % x", v, got, ref)
				return false
			}
			back, err := DecodePayload(ref)
			if err != nil {
				t.Logf("%T: decode: %v", v, err)
				return false
			}
			want := v
			if reflect.ValueOf(v).Len() == 0 {
				want = reflect.Zero(reflect.TypeOf(v)).Interface()
			}
			if !reflect.DeepEqual(back, want) {
				t.Logf("%T: decoded %#v, want %#v", v, back, want)
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
	// Anything else is refused, and the caller's buffer comes back intact.
	dst := make([]byte, 3, 64)
	for _, v := range []any{[]string{"x"}, struct{ A int }{4}, 7} {
		out, err := AppendPayload(dst, v)
		if err == nil {
			t.Errorf("%T: encoded without error", v)
		}
		if len(out) != len(dst) || &out[0] != &dst[0] {
			t.Errorf("%T: error path returned %d bytes, not the caller's buffer", v, len(out))
		}
	}
}

// Format 0x01 once carried gob-encoded structs. A raw payload re-tagged
// with it, and a real gob payload, must both be rejected, never misparsed.
func TestRawGobCrossDecodeRejected(t *testing.T) {
	rawBytes, err := EncodePayload([]float32{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	retagged := append([]byte{0x01}, rawBytes[1:]...)
	// A gob envelope of []float32{1, 2}, as the codec once wrote it.
	gobBytes := []byte("\x01\x1b\x7f\x03\x01\x01\benvelope\x01\xff\x80\x00\x01\x01\x01\x01V\x01\x10\x00\x00\x00" +
		"\x19\xff\x80\x01\t[]float32\xff\x83\x02\x01\x02\xff\x84\x00\x01\b\x00\x00\n\xff\x84\x06\x00\x02\xfe\xf0?@\x00")
	for name, b := range map[string][]byte{"re-tagged raw": retagged, "gob": gobBytes} {
		if v, err := DecodePayload(b); err == nil {
			t.Errorf("%s payload decoded to %#v", name, v)
		}
		if p, ok, _ := ParseRawPayload(b, nil); ok {
			t.Errorf("%s payload parsed as raw (%d elements)", name, p.Elems())
		}
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
// retired tag 0x0c, the retired gob format 0x01 and the malformed shapes;
// only the raw format ever decodes.
func FuzzDecodePayload(f *testing.F) {
	seed, err := EncodePayload([]float32{1, 2})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(append([]byte{0x01}, seed[1:]...))
	f.Fuzz(func(t *testing.T, b []byte) {
		want, decErr := DecodePayload(b)
		if len(b) > 0 && b[0] != fmtRaw && decErr == nil {
			t.Fatalf("format %#02x decoded to %#v", b[0], want)
		}
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
