package transport

import (
	"encoding/binary"
	"fmt"
	"math"
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

// Float16Bits converts a float32 to IEEE 754 binary16 bits with
// round-to-nearest-even. Values beyond ±65504 overflow to ±Inf, NaN maps
// to a quiet NaN, and magnitudes below 2^-24 flush to signed zero.
// Conversion is idempotent: encoding an exactly representable binary16
// value returns its own bits, which is what makes an fp16 round-trip on
// the sender a no-op for already-quantized tensors.
func Float16Bits(f float32) uint16 {
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

// Float16From converts IEEE 754 binary16 bits to float32, exactly.
func Float16From(h uint16) float32 {
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
// false when the payload needs the element-converting or gob paths: an
// unsupported or named type, or a big-endian host. The view aliases the caller's slice and is only valid until
// the payload is mutated.
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
