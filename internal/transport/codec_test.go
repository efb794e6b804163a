package transport

import (
	"reflect"
	"testing"
)

func TestPayloadRoundTrip(t *testing.T) {
	cases := []any{
		[]float64{1, 2, 3.5},
		[]float32{0.5, -1},
		[]int{7},
		[]int64{1 << 40},
		[]uint8{0xde, 0xad},
		[]bool{true, false},
		[]ProcID{0, 3, 9},
	}
	for i, in := range cases {
		b, err := EncodePayload(in)
		if err != nil {
			t.Fatalf("case %d: encode: %v", i, err)
		}
		out, err := DecodePayload(b)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(out, in) {
			t.Fatalf("case %d: round-trip %#v -> %#v", i, in, out)
		}
	}
}

func TestPayloadNil(t *testing.T) {
	b, err := EncodePayload(nil)
	if err != nil {
		t.Fatalf("encode nil: %v", err)
	}
	if b != nil {
		t.Fatalf("nil payload encoded to %d bytes", len(b))
	}
	out, err := DecodePayload(nil)
	if err != nil || out != nil {
		t.Fatalf("decode nil = (%v, %v), want (nil, nil)", out, err)
	}
	out, err = DecodePayload([]byte{})
	if err != nil || out != nil {
		t.Fatalf("decode empty = (%v, %v), want (nil, nil)", out, err)
	}
}

func TestPayloadGarbage(t *testing.T) {
	if _, err := DecodePayload([]byte{0xff, 0x00, 0x13, 0x37}); err == nil {
		t.Fatal("garbage bytes decoded without error")
	}
}
