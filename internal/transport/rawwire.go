package transport

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"unsafe"
)

// This file is the raw codec's zero-copy surface: typed views over
// payload bytes in both directions, so transports can scatter-gather
// sends straight from the caller's slice (writev) and receivers can
// reduce straight out of the frame buffer without an intermediate
// decoded copy.
//
// It also defines the compressed gradient element type, F16. It is a
// transport-level type (not mpi-level) because it names a wire format:
// a tag byte on the frame decides how the bytes decode, and both ends
// must agree without negotiation state.

// F16 is a slice of IEEE 754 binary16 values, stored as raw bit
// patterns. It travels under its own raw-codec tag so the receiver can
// decompress-and-reduce without an intermediate float32 slice.
type F16 []uint16

// Float is the element types the binary16 kernels convert. A float64
// is narrowed to float32 first, then rounded to binary16, so both widths
// travel as the same bits.
type Float interface{ ~float32 | ~float64 }

// Binary16 rounding, as float32 bit arithmetic. A float32 magnitude in
// [2^-14, 65520) lands in the binary16 normal range. For it, rounding to
// binary16 is dropping the low 13 mantissa bits with round-to-nearest-
// even, and a mantissa carry rolls into the exponent on its own. Values
// outside that span — zero, binary16 subnormals, overflow, Inf and NaN —
// take f16Edge, out of line, so the kernels' loops stay small.
const (
	f16FastLo   = 0x38800000 // 2^-14, the least binary16 normal
	f16FastSpan = 0x477ff000 - f16FastLo
	f16Rebias   = (127 - 15) << 23 // float32 minus binary16 exponent bias, in place
)

// f16Fast reports whether float32 bits b take the fast path.
func f16Fast(b uint32) bool { return b&0x7fffffff-f16FastLo < f16FastSpan }

// f16Round rounds fast-path float32 bits b to the nearest binary16 value,
// ties to even: the result is float32 bits on the binary16 grid. It is
// the one place binary16 rounding is written down.
func f16Round(b uint32) uint32 { return (b + 0xfff + b>>13&1) &^ 0x1fff }

// f16Bits is the binary16 encoding of float32 bits r that f16Round
// returned: the sign moves down, the exponent is rebiased.
func f16Bits(r uint32) uint16 { return uint16(r>>16)&0x8000 | uint16((r-f16Rebias)>>13) }

// f16Edge encodes float32 bits b that are not on the fast path: NaN
// becomes a quiet NaN of the same sign, overflow rounds to ±Inf. Below
// 2^-14, adding 0.5 lets the FPU round: the float32 ulp at 0.5 is 2^-24,
// the binary16 subnormal step, so the sum's low mantissa bits are the
// rounded subnormal (or, at 1024, the least normal).
//
//go:noinline
func f16Edge(b uint32) uint16 {
	sign := uint16(b>>16) & 0x8000
	switch a := b & 0x7fffffff; {
	case a > 0x7f800000:
		return sign | 0x7e00
	case a >= f16FastLo: // and past the fast path: 65520 and up
		return sign | 0x7c00
	default:
		return sign | uint16(math.Float32bits(math.Float32frombits(a)+0.5)-0x3f000000)
	}
}

// f16Table is the binary16 decode table: element h is h's exact float32
// value. Built on first fp16 use, so raw-codec processes never pay for
// its 256 KiB.
var f16Table = sync.OnceValue(func() *[1 << 16]float32 {
	t := new([1 << 16]float32)
	for h := range t {
		sign, man := uint32(h&0x8000)<<16, uint32(h&0x3ff)
		switch h >> 10 & 0x1f {
		case 0: // zero and subnormals: man · 2^-24
			t[h] = math.Float32frombits(sign | math.Float32bits(float32(man)*0x1p-24))
		case 0x1f: // Inf, and NaN with its payload
			t[h] = math.Float32frombits(sign | 0x7f800000 | man<<13)
		default:
			t[h] = math.Float32frombits(sign | uint32(h&0x7fff)<<13 + f16Rebias)
		}
	}
	return t
})

// Float16Table returns the binary16 decode table: element h is the
// exact float32 value of bits h. Callers must not write to it.
func Float16Table() *[1 << 16]float32 { return f16Table() }

// EncodeF16 writes the binary16 encoding of each src element to dst,
// which must be at least as long.
func EncodeF16[T Float](dst F16, src []T) {
	dst = dst[:len(src)]
	for i, v := range src {
		if b := math.Float32bits(float32(v)); f16Fast(b) {
			dst[i] = f16Bits(f16Round(b))
		} else {
			dst[i] = f16Edge(b)
		}
	}
}

// EncodeQuantizeF16 is EncodeF16 that also rewrites each src element to
// the value its encoding decodes to, so the sender holds exactly what
// its receivers will. Quantizing is idempotent: an element already on
// the binary16 grid encodes to its own bits and keeps its value.
func EncodeQuantizeF16[T Float](dst F16, src []T) {
	t := f16Table()
	dst = dst[:len(src)]
	for i, v := range src {
		if b := math.Float32bits(float32(v)); f16Fast(b) {
			r := f16Round(b)
			dst[i] = f16Bits(r)
			src[i] = T(math.Float32frombits(r))
		} else {
			dst[i] = f16Edge(b)
			src[i] = T(t[dst[i]])
		}
	}
}

// QuantizeF16 rounds every element of v to the binary16 value it would
// travel as: v[i] becomes the decoding of its own encoding.
func QuantizeF16[T Float](v []T) {
	t := f16Table()
	for i, x := range v {
		if b := math.Float32bits(float32(x)); f16Fast(b) {
			v[i] = T(math.Float32frombits(f16Round(b)))
		} else {
			v[i] = T(t[f16Edge(b)])
		}
	}
}

// DecodeF16 writes the value of each src element to dst, which must be
// at least as long. Decoding is exact.
func DecodeF16[T Float](dst []T, src F16) {
	t := f16Table()
	dst = dst[:len(src)]
	for i, h := range src {
		dst[i] = T(t[h])
	}
}

// RawPayloadHeaderLen is the length of the raw-codec payload header a
// scatter-gather sender must prepend before the body bytes returned by
// RawSendView.
const RawPayloadHeaderLen = rawHeaderLen

// AppendRawPayloadHeader appends the raw-codec payload header (format
// byte, type tag, element count) matching a body from RawSendView.
func AppendRawPayloadHeader(dst []byte, tag byte, count int) []byte {
	dst = append(dst, fmtRaw, tag)
	var cnt [8]byte
	binary.LittleEndian.PutUint64(cnt[:], uint64(count))
	return append(dst, cnt[:]...)
}

// RawSendView returns the raw-codec type tag, element count, and a
// zero-copy view of the payload's bulk little-endian bytes, for
// transports that scatter-gather the frame header and body straight to
// the kernel (writev) without assembling a contiguous frame. ok is
// false when the payload needs the element-converting path: an
// unsupported or named type, or a big-endian host. The view aliases the
// caller's slice and is only valid until the payload is mutated.
func RawSendView(v any) (tag byte, count int, body []byte, ok bool) {
	if !hostLittleEndian {
		return 0, 0, nil, false
	}
	switch s := v.(type) {
	case []float32:
		return rawF32, len(s), byteView(s), true
	case []float64:
		return rawF64, len(s), byteView(s), true
	case []int32:
		return rawI32, len(s), byteView(s), true
	case []int64:
		return rawI64, len(s), byteView(s), true
	case []uint32:
		return rawU32, len(s), byteView(s), true
	case []uint64:
		return rawU64, len(s), byteView(s), true
	case []uint8:
		return rawU8, len(s), s, true
	case F16:
		return rawF16, len(s), byteView([]uint16(s)), true
	}
	return 0, 0, nil, false
}

func byteView[T uint16 | uint32 | uint64 | int32 | int64 | float32 | float64](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	var z T
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(z)))
}

// RawPayload is a lazily decoded raw-codec payload whose bytes still
// live in a transport-owned buffer (typically a pooled readLoop frame).
// Receivers that can consume the bytes in place — the reduce loops —
// take a typed view via RawPayloadView / AsF16, then Release the
// underlying buffer. Receivers that need an owning slice call Decode,
// which also releases. Exactly one of those must happen, or the frame
// pool leaks (OutstandingFrameBufs catches that in tests).
type RawPayload struct {
	enc     []byte // full raw-codec payload: header + body, transport-owned
	tag     byte
	count   int
	release func()
}

// ParseRawPayload validates b as a raw-codec payload and wraps it
// without decoding. ok is false (with a nil error) when b is not a raw
// payload at all — the caller should decode eagerly instead. A raw
// payload that fails validation returns an error, exactly as
// DecodePayload would. release is invoked once, on Release or Decode.
func ParseRawPayload(b []byte, release func()) (p *RawPayload, ok bool, err error) {
	if len(b) < rawHeaderLen || b[0] != fmtRaw {
		return nil, false, nil
	}
	tag := b[1]
	count64 := binary.LittleEndian.Uint64(b[2:10])
	if count64 > uint64(len(b)) {
		return nil, false, fmt.Errorf("transport: decode payload: raw count %d exceeds %d payload bytes", count64, len(b))
	}
	count := int(count64)
	elem := RawElemBytes(tag)
	if elem == 0 {
		return nil, false, fmt.Errorf("transport: decode payload: unknown raw type tag %#02x", tag)
	}
	if bodyLen := len(b) - rawHeaderLen; bodyLen != count*elem {
		return nil, false, fmt.Errorf("transport: decode payload: raw body of %d bytes for %d elements of %d bytes",
			bodyLen, count, elem)
	}
	return &RawPayload{enc: b, tag: tag, count: count, release: release}, true, nil
}

// Elems returns the declared element count.
func (p *RawPayload) Elems() int { return p.count }

// body returns the bulk bytes after the raw header.
func (p *RawPayload) body() []byte { return p.enc[rawHeaderLen:] }

// Release returns the underlying transport buffer. Idempotent; the
// payload's views must not be used afterwards.
func (p *RawPayload) Release() {
	if p.release != nil {
		r := p.release
		p.release = nil
		r()
	}
}

// Decode materializes an owning decoded value (the same result
// DecodePayload would have produced) and releases the underlying
// buffer.
func (p *RawPayload) Decode() (any, error) {
	v, err := decodeRaw(p.enc)
	p.Release()
	return v, err
}

// AsF16 returns the payload as an F16 view if it carries binary16
// elements. The view is valid until Release.
func (p *RawPayload) AsF16() (F16, bool) {
	if p.tag != rawF16 {
		return nil, false
	}
	v, ok := RawPayloadView[uint16](p)
	return F16(v), ok
}

// RawPayloadView returns a typed zero-copy view of the payload's bulk
// bytes. ok is false when the element type does not match T, the host
// is big-endian, or the body is not aligned for T (pooled frame buffers
// are read at an aligned offset, so misalignment only occurs for
// payloads parsed out of arbitrary byte slices). The view is valid
// until Release.
func RawPayloadView[T uint8 | uint16 | uint32 | uint64 | int32 | int64 | float32 | float64](p *RawPayload) ([]T, bool) {
	var z T
	if p.tag != viewTag(z) || !hostLittleEndian {
		return nil, false
	}
	if p.count == 0 {
		return []T{}, true
	}
	b := p.body()
	size := int(unsafe.Sizeof(z))
	if uintptr(unsafe.Pointer(&b[0]))%uintptr(size) != 0 {
		return nil, false
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), p.count), true
}

// DecodeWords hands decode the []int64 word vector a message carries:
// decoded, from an in-process transport or a small wire frame, or as a
// lazy frame view, which a wire transport delivers on a data tag from
// its zero-copy threshold up. A lazy payload is released once decode
// returns, so decode must copy whatever it keeps.
func DecodeWords[T any](data any, decode func([]int64) (T, error)) (T, error) {
	switch d := data.(type) {
	case []int64:
		return decode(d)
	case *RawPayload:
		if w, ok := RawPayloadView[int64](d); ok {
			v, err := decode(w)
			d.Release()
			return v, err
		}
		v, err := d.Decode() // an unaligned view: Decode copies and releases
		if w, ok := v.([]int64); ok && err == nil {
			return decode(w)
		}
	}
	var zero T
	return zero, fmt.Errorf("transport: payload %T is not a word vector", data)
}

func viewTag(z any) byte {
	switch z.(type) {
	case uint8:
		return rawU8
	case uint16:
		return rawF16
	case uint32:
		return rawU32
	case uint64:
		return rawU64
	case int32:
		return rawI32
	case int64:
		return rawI64
	case float32:
		return rawF32
	case float64:
		return rawF64
	}
	return 0
}

// ReleaseMessage returns any pooled transport memory a message's lazy
// payload still holds. Transports call it when dropping messages that
// will never reach a consumer (endpoint closing, delivery after close).
func ReleaseMessage(m *Message) {
	if m == nil {
		return
	}
	if rp, ok := m.Data.(*RawPayload); ok {
		rp.Release()
	}
}

// RawElemBytes returns the wire width of one element for a raw-codec type
// tag (the tag RawSendView reports), or 0 for an unknown tag.
func RawElemBytes(tag byte) int {
	switch tag {
	case rawF32, rawI32, rawU32:
		return 4
	case rawF64, rawI64, rawU64, rawInt, rawProcID:
		return 8
	case rawF16:
		return 2
	case rawU8, rawBool:
		return 1
	}
	return 0
}
