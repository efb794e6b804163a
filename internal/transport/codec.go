package transport

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"
)

// The wire codec serializes the opaque Message.Data payloads that
// in-process backends pass by reference. Backends that never cross a
// process boundary (simnet) skip the codec entirely.
//
// A payload is a numeric slice: the gradient chunks the collectives move,
// and the fixed-layout []int64 word vectors every control message travels
// as (agreement, revoke, join, state-transfer offer and ack). Its encoding
// is a fixed header plus the bulk bytes:
//
//	offset 0    : format byte, fmtRaw
//	offset 1    : element type tag (rawF32, rawF64, ...)
//	offset 2    : uint64 little-endian element count
//	offset 10   : count * elemSize bytes, little-endian fixed width
//
// No reflection, no per-element framing, one allocation per encode and one
// per decode. A zero count decodes to a typed nil slice. Any other format
// byte is rejected, including 0x01, which once carried gob-encoded structs.

const fmtRaw = 0x02

// Raw element type tags. The tag fixes the element width; the decoder
// rejects payloads whose byte length disagrees with the declared count.
const (
	rawF32 = iota + 1
	rawF64
	rawI32
	rawI64
	rawU8
	rawU32
	rawU64
	rawInt    // transmitted as 64-bit regardless of host int width
	rawBool   // one byte per element
	rawProcID // transmitted as 64-bit
	rawF16    // IEEE 754 binary16 bit patterns, two bytes per element
	// 0x0c once carried block-quantized int8. It stays unassigned, so a
	// peer still sending it is rejected instead of misread.
)

// hostLittleEndian reports whether the host stores integers little-endian,
// enabling single-memmove bulk encoding of fixed-width numeric slices.
// Big-endian hosts fall back to per-element encoding and stay wire
// compatible.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// EncodePayload serializes a payload for the wire. A nil payload encodes
// to nil bytes (virtual buffers and barrier tokens carry no data).
func EncodePayload(v any) ([]byte, error) {
	return AppendPayload(nil, v)
}

// AppendPayload appends the encoded payload to dst and returns the
// extended slice, letting callers that pool frame buffers encode without
// an intermediate allocation. A nil payload appends nothing.
func AppendPayload(dst []byte, v any) ([]byte, error) {
	if v == nil {
		return dst, nil
	}
	if out, ok := appendRaw(dst, v); ok {
		return out, nil
	}
	// Return dst, not nil: callers that encode into pooled buffers must get
	// their buffer back on the error path, or the pool would be poisoned
	// with nil slices (and the original allocation lost).
	return dst, fmt.Errorf("transport: encode payload: unsupported type %T", v)
}

// DecodePayload reverses EncodePayload/AppendPayload.
func DecodePayload(b []byte) (any, error) {
	if len(b) == 0 {
		return nil, nil
	}
	if b[0] != fmtRaw {
		return nil, fmt.Errorf("transport: decode payload: unknown format byte %#02x", b[0])
	}
	return decodeRaw(b)
}

// --- raw fast path ------------------------------------------------------

// rawHeaderLen is the raw prefix: format byte, type tag, element count.
const rawHeaderLen = 1 + 1 + 8

// growFor extends dst's capacity for n more bytes in a single allocation.
func growFor(dst []byte, n int) []byte {
	if cap(dst)-len(dst) >= n {
		return dst
	}
	out := make([]byte, len(dst), len(dst)+n)
	copy(out, dst)
	return out
}

func rawHeader(dst []byte, tag byte, count int, elemBytes int) []byte {
	dst = growFor(dst, rawHeaderLen+count*elemBytes)
	dst = append(dst, fmtRaw, tag)
	var cnt [8]byte
	binary.LittleEndian.PutUint64(cnt[:], uint64(count))
	return append(dst, cnt[:]...)
}

// appendFixed bulk-appends a slice of fixed-width little-endian elements.
// On little-endian hosts this is a single copy of the backing array.
func appendFixed[T uint16 | uint32 | uint64 | int32 | int64 | float32 | float64](dst []byte, v []T) []byte {
	var z T
	size := int(unsafe.Sizeof(z))
	if hostLittleEndian {
		if len(v) == 0 {
			return dst
		}
		return append(dst, unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*size)...)
	}
	var e [8]byte
	for _, x := range v {
		switch size {
		case 2:
			binary.LittleEndian.PutUint16(e[:2], uint16(toRawBits(x)))
			dst = append(dst, e[:2]...)
		case 4:
			binary.LittleEndian.PutUint32(e[:4], uint32(toRawBits(x)))
			dst = append(dst, e[:4]...)
		default:
			binary.LittleEndian.PutUint64(e[:], toRawBits(x))
			dst = append(dst, e[:]...)
		}
	}
	return dst
}

func toRawBits[T uint16 | uint32 | uint64 | int32 | int64 | float32 | float64](x T) uint64 {
	switch v := any(x).(type) {
	case uint16:
		return uint64(v)
	case uint32:
		return uint64(v)
	case uint64:
		return v
	case int32:
		return uint64(uint32(v))
	case int64:
		return uint64(v)
	case float32:
		return uint64(math.Float32bits(v))
	default:
		return math.Float64bits(any(x).(float64))
	}
}

// decodeFixed reverses appendFixed; b must hold exactly count elements.
func decodeFixed[T uint16 | uint32 | uint64 | int32 | int64 | float32 | float64](b []byte, count int) []T {
	if count == 0 {
		return nil // nil and empty slices both decode to a typed nil
	}
	out := make([]T, count)
	size := int(unsafe.Sizeof(out[0]))
	if hostLittleEndian {
		copy(unsafe.Slice((*byte)(unsafe.Pointer(&out[0])), count*size), b)
		return out
	}
	for i := range out {
		var bits uint64
		switch size {
		case 2:
			bits = uint64(binary.LittleEndian.Uint16(b[i*2:]))
		case 4:
			bits = uint64(binary.LittleEndian.Uint32(b[i*4:]))
		default:
			bits = binary.LittleEndian.Uint64(b[i*8:])
		}
		out[i] = fromRawBits[T](bits)
	}
	return out
}

func fromRawBits[T uint16 | uint32 | uint64 | int32 | int64 | float32 | float64](bits uint64) T {
	var z T
	switch any(z).(type) {
	case uint16:
		return T(any(uint16(bits)).(T))
	case uint32:
		return T(any(uint32(bits)).(T))
	case uint64:
		return T(any(bits).(T))
	case int32:
		return any(int32(uint32(bits))).(T)
	case int64:
		return any(int64(bits)).(T)
	case float32:
		return any(math.Float32frombits(uint32(bits))).(T)
	default:
		return any(math.Float64frombits(bits)).(T)
	}
}

// appendRaw encodes the supported numeric slice payloads; ok is false for
// any other type.
func appendRaw(dst []byte, v any) (out []byte, ok bool) {
	switch s := v.(type) {
	case []float32:
		return appendFixed(rawHeader(dst, rawF32, len(s), 4), s), true
	case []float64:
		return appendFixed(rawHeader(dst, rawF64, len(s), 8), s), true
	case []int32:
		return appendFixed(rawHeader(dst, rawI32, len(s), 4), s), true
	case []int64:
		return appendFixed(rawHeader(dst, rawI64, len(s), 8), s), true
	case []uint32:
		return appendFixed(rawHeader(dst, rawU32, len(s), 4), s), true
	case []uint64:
		return appendFixed(rawHeader(dst, rawU64, len(s), 8), s), true
	case []uint8:
		return append(rawHeader(dst, rawU8, len(s), 1), s...), true
	case F16:
		return appendFixed(rawHeader(dst, rawF16, len(s), 2), []uint16(s)), true
	case []int:
		dst = rawHeader(dst, rawInt, len(s), 8)
		var e [8]byte
		for _, x := range s {
			binary.LittleEndian.PutUint64(e[:], uint64(int64(x)))
			dst = append(dst, e[:]...)
		}
		return dst, true
	case []ProcID:
		dst = rawHeader(dst, rawProcID, len(s), 8)
		var e [8]byte
		for _, x := range s {
			binary.LittleEndian.PutUint64(e[:], uint64(int64(x)))
			dst = append(dst, e[:]...)
		}
		return dst, true
	case []bool:
		dst = rawHeader(dst, rawBool, len(s), 1)
		for _, x := range s {
			if x {
				dst = append(dst, 1)
			} else {
				dst = append(dst, 0)
			}
		}
		return dst, true
	default:
		return dst, false
	}
}

// decodeRaw reverses appendRaw, validating the declared count against the
// actual byte length so a corrupted frame cannot drive a bad allocation.
func decodeRaw(b []byte) (any, error) {
	if len(b) < rawHeaderLen || b[0] != fmtRaw {
		return nil, fmt.Errorf("transport: decode payload: not a raw payload")
	}
	tag := b[1]
	count64 := binary.LittleEndian.Uint64(b[2:10])
	if count64 > uint64(len(b)) { // every element is at least one byte
		return nil, fmt.Errorf("transport: decode payload: raw count %d exceeds %d payload bytes", count64, len(b))
	}
	count := int(count64)
	body := b[rawHeaderLen:]
	elemBytes := RawElemBytes(tag)
	if elemBytes == 0 {
		return nil, fmt.Errorf("transport: decode payload: unknown raw type tag %#02x", tag)
	}
	if len(body) != count*elemBytes {
		return nil, fmt.Errorf("transport: decode payload: raw body of %d bytes for %d elements of %d bytes",
			len(body), count, elemBytes)
	}
	switch tag {
	case rawF32:
		return decodeFixed[float32](body, count), nil
	case rawF64:
		return decodeFixed[float64](body, count), nil
	case rawI32:
		return decodeFixed[int32](body, count), nil
	case rawI64:
		return decodeFixed[int64](body, count), nil
	case rawU32:
		return decodeFixed[uint32](body, count), nil
	case rawU64:
		return decodeFixed[uint64](body, count), nil
	case rawU8:
		if count == 0 {
			return []uint8(nil), nil
		}
		out := make([]uint8, count)
		copy(out, body)
		return out, nil
	case rawF16:
		return F16(decodeFixed[uint16](body, count)), nil
	case rawInt:
		if count == 0 {
			return []int(nil), nil
		}
		out := make([]int, count)
		for i := range out {
			out[i] = int(int64(binary.LittleEndian.Uint64(body[i*8:])))
		}
		return out, nil
	case rawProcID:
		if count == 0 {
			return []ProcID(nil), nil
		}
		out := make([]ProcID, count)
		for i := range out {
			out[i] = ProcID(int64(binary.LittleEndian.Uint64(body[i*8:])))
		}
		return out, nil
	default: // rawBool
		if count == 0 {
			return []bool(nil), nil
		}
		out := make([]bool, count)
		for i := range out {
			out[i] = body[i] != 0
		}
		return out, nil
	}
}
