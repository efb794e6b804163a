package mpi

import (
	"fmt"
	"unsafe"

	"repro/internal/transport"
)

// Op identifies a reduction operator. All supported operators are
// commutative and associative, as required by the tree and ring
// reduction schedules.
type Op int

const (
	OpSum Op = iota
	OpProd
	OpMax
	OpMin
	OpBAnd // bitwise AND (integer types only)
	OpBOr  // bitwise OR  (integer types only)
)

func (o Op) String() string {
	switch o {
	case OpSum:
		return "sum"
	case OpProd:
		return "prod"
	case OpMax:
		return "max"
	case OpMin:
		return "min"
	case OpBAnd:
		return "band"
	case OpBOr:
		return "bor"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// Number constrains element types usable in reductions.
type Number interface {
	~int | ~int32 | ~int64 | ~uint8 | ~uint32 | ~uint64 | ~float32 | ~float64
}

// buf abstracts a collective's working buffer so one implementation of
// each algorithm serves real typed data (numBuf), opaque copyable data
// (rawBuf), and virtual payloads that only exercise the cost model
// (virtBuf — used to simulate multi-hundred-MB gradient tensors without
// allocating them).
//
// payload(lo, hi) is what a send of [lo,hi) puts on the wire. It is
// valid until the Send it is passed to returns: numBuf and rawBuf lend a
// view of their own storage and compBuf its one reused encode scratch,
// which Send's borrow contract allows, so a schedule may write the sent
// range, or take the next payload, only after that Send returns.
type buf interface {
	length() int               // logical element count
	bytesFor(n int) int64      // wire size of n elements
	payload(lo, hi int) any    // [lo,hi) for sending, valid until Send returns
	setIn(lo, hi int, pay any) // overwrite [lo,hi) with a received payload
	reduceIn(lo, hi int, pay any, op Op)
}

// --- numeric buffers ---------------------------------------------------

type numBuf[T Number] struct{ v []T }

func (b numBuf[T]) length() int { return len(b.v) }

func (b numBuf[T]) bytesFor(n int) int64 {
	var z T
	return int64(n) * int64(unsafe.Sizeof(z))
}

func (b numBuf[T]) payload(lo, hi int) any { return b.v[lo:hi:hi] }

func (b numBuf[T]) setIn(lo, hi int, pay any) {
	if rp, ok := pay.(*transport.RawPayload); ok {
		if v, ok := lazyView[T](rp); ok {
			copy(b.v[lo:hi], v)
			rp.Release()
			return
		}
		copy(b.v[lo:hi], decodeLazy[T](rp))
		return
	}
	copy(b.v[lo:hi], pay.([]T))
}

func (b numBuf[T]) reduceIn(lo, hi int, pay any, op Op) {
	dst := b.v[lo:hi]
	if rp, ok := pay.(*transport.RawPayload); ok {
		// In-place reduction: combine straight out of the transport's
		// frame buffer into the receive segment — no decoded scratch
		// slice, one traversal instead of two.
		if v, ok := lazyView[T](rp); ok {
			reduceSlice(dst, v, op)
			rp.Release()
			return
		}
		reduceSlice(dst, decodeLazy[T](rp), op)
		return
	}
	reduceSlice(dst, pay.([]T), op)
}

// lazyView returns a zero-copy typed view of a lazy raw payload for the
// element types that have a direct wire representation. The named-type
// instantiations of Number (and ~int, whose wire width differs from the
// host's) report false and take the decode path.
func lazyView[T Number](rp *transport.RawPayload) ([]T, bool) {
	var z []T
	switch any(z).(type) {
	case []float32:
		v, ok := transport.RawPayloadView[float32](rp)
		return any(v).([]T), ok
	case []float64:
		v, ok := transport.RawPayloadView[float64](rp)
		return any(v).([]T), ok
	case []int32:
		v, ok := transport.RawPayloadView[int32](rp)
		return any(v).([]T), ok
	case []int64:
		v, ok := transport.RawPayloadView[int64](rp)
		return any(v).([]T), ok
	case []uint8:
		v, ok := transport.RawPayloadView[uint8](rp)
		return any(v).([]T), ok
	case []uint32:
		v, ok := transport.RawPayloadView[uint32](rp)
		return any(v).([]T), ok
	case []uint64:
		v, ok := transport.RawPayloadView[uint64](rp)
		return any(v).([]T), ok
	default:
		return nil, false
	}
}

// decoded materializes a lazy raw payload into an owning value and
// releases the underlying transport buffer. The payload was validated
// at receive time, so a decode failure here is a programming error.
func decoded(rp *transport.RawPayload) any {
	v, err := rp.Decode()
	if err != nil {
		panic(fmt.Sprintf("mpi: corrupt lazy payload: %v", err))
	}
	return v
}

// decodeLazy is decoded as a []T.
func decodeLazy[T any](rp *transport.RawPayload) []T {
	v := decoded(rp)
	if v == nil {
		return nil
	}
	return v.([]T)
}

// payloadAs converts a received message payload to []T, materializing
// lazy raw payloads. Call sites that consume Message.Data directly use
// this instead of a type assertion so large in-place-capable frames
// still reach them.
func payloadAs[T any](pay any) []T {
	if rp, ok := pay.(*transport.RawPayload); ok {
		return decodeLazy[T](rp)
	}
	if pay == nil {
		var z []T
		return z
	}
	return pay.([]T)
}

func reduceSlice[T Number](dst, in []T, op Op) {
	switch op {
	case OpSum:
		for i := range dst {
			dst[i] += in[i]
		}
	case OpProd:
		for i := range dst {
			dst[i] *= in[i]
		}
	case OpMax:
		for i := range dst {
			if in[i] > dst[i] {
				dst[i] = in[i]
			}
		}
	case OpMin:
		for i := range dst {
			if in[i] < dst[i] {
				dst[i] = in[i]
			}
		}
	case OpBAnd:
		for i := range dst {
			dst[i] = bitAnd(dst[i], in[i])
		}
	case OpBOr:
		for i := range dst {
			dst[i] = bitOr(dst[i], in[i])
		}
	default:
		panic(fmt.Sprintf("mpi: unknown op %v", op))
	}
}

// bitAnd and bitOr implement bitwise operators over the Number constraint
// by round-tripping through uint64 bit patterns; they panic on floating
// payloads, which have no meaningful bitwise reduction in this stack.
func bitAnd[T Number](a, b T) T { return fromBits[T](toBits(a) & toBits(b)) }
func bitOr[T Number](a, b T) T  { return fromBits[T](toBits(a) | toBits(b)) }

func toBits[T Number](v T) uint64 {
	switch x := any(v).(type) {
	case int:
		return uint64(x)
	case int32:
		return uint64(uint32(x))
	case int64:
		return uint64(x)
	case uint8:
		return uint64(x)
	case uint32:
		return uint64(x)
	case uint64:
		return x
	default:
		panic("mpi: bitwise op on non-integer type")
	}
}

func fromBits[T Number](v uint64) T {
	var z T
	switch any(z).(type) {
	case int:
		return T(v)
	case int32:
		return T(int32(uint32(v)))
	case int64:
		return T(int64(v))
	case uint8:
		return T(uint8(v))
	case uint32:
		return T(uint32(v))
	case uint64:
		return T(v)
	default:
		panic("mpi: bitwise op on non-integer type")
	}
}

// --- opaque copy-only buffers (bcast/gather of non-numeric data) -------

type rawBuf[T any] struct{ v []T }

func (b rawBuf[T]) length() int { return len(b.v) }

func (b rawBuf[T]) bytesFor(n int) int64 {
	var z T
	return int64(n) * int64(unsafe.Sizeof(z))
}

func (b rawBuf[T]) payload(lo, hi int) any { return b.v[lo:hi:hi] }

func (b rawBuf[T]) setIn(lo, hi int, pay any) {
	copy(b.v[lo:hi], payloadAs[T](pay))
}

func (b rawBuf[T]) reduceIn(lo, hi int, pay any, op Op) {
	panic("mpi: reduction on non-numeric buffer")
}

// --- virtual buffers ----------------------------------------------------

// virtBuf models a payload of a given byte size without storing it: one
// logical element per byte, nil payloads on the wire. The cost model sees
// the exact traffic the real tensor would generate.
type virtBuf struct{ bytes int64 }

func (b virtBuf) length() int                        { return int(b.bytes) }
func (b virtBuf) bytesFor(n int) int64               { return int64(n) }
func (b virtBuf) payload(lo, hi int) any             { return nil }
func (b virtBuf) setIn(lo, hi int, pay any)          {}
func (b virtBuf) reduceIn(lo, hi int, pay any, o Op) {}
