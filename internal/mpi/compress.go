package mpi

import (
	"fmt"
	"strings"

	"repro/internal/transport"
)

// Wire-format gradient compression. A WireCodec selects how a float
// collective's chunks travel: raw little-endian bits (lossless) or IEEE
// binary16 (half the bytes for float32). Compression happens inside the
// buffer abstraction — payload() emits a compressed transport payload,
// setIn()/reduceIn() decompress-and-combine in one pass — so every
// allreduce schedule (ring, pipelined, tree, recursive doubling,
// hierarchical) compresses without algorithm changes, and ULFM
// retry-after-shrink replays it like any other collective.
//
// Uniformity. ULFM requires every member to finish a collective with
// bit-identical results. payload() quantizes the sender's own range in
// place before sending, so a rank always holds exactly the values its
// receivers decode; because the binary16 round-trip is idempotent
// (re-encoding an already-representable value returns its own bits),
// this makes sends self-consistent everywhere. At the reduce→distribute
// boundary (markDistribute) every rank additionally round-trips its
// whole local buffer, because quantize-on-send cannot reach ranks that
// never forward a finished segment.
//
// Error bounds (documented for the property tests): one fp16
// quantization of x adds at most 2^-11·|x| relative error for |x| in
// [2^-14, 65504] (flushing to zero below, saturating to ±Inf above);
// an OpSum allreduce across w ranks over h quantization hops is off by
// at most (h+1)·2^-11·Σ|x_i| elementwise.

// WireCodec selects the wire representation of float collective chunks.
type WireCodec int

const (
	// CodecRaw sends full-width little-endian bits (lossless).
	CodecRaw WireCodec = iota
	// CodecFP16 sends IEEE binary16 — 2 bytes/element.
	CodecFP16
)

func (c WireCodec) String() string {
	switch c {
	case CodecRaw:
		return "raw"
	case CodecFP16:
		return "fp16"
	default:
		return fmt.Sprintf("codec(%d)", int(c))
	}
}

// ParseWireCodec parses the flag spellings of the codec names (as
// accepted by cmd/elasticd's -codec flag).
func ParseWireCodec(s string) (WireCodec, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "raw", "none":
		return CodecRaw, nil
	case "fp16", "f16", "half":
		return CodecFP16, nil
	default:
		return CodecRaw, fmt.Errorf("mpi: unknown wire codec %q (want raw or fp16)", s)
	}
}

// WireBytesPerElem reports the nominal wire cost of one element of the
// given native width under a codec. For reports and ablation tables; the
// measured wire bytes live in the tcpnet tx counters.
func WireBytesPerElem(c WireCodec, elemBytes int) float64 {
	if c == CodecFP16 {
		return 2
	}
	return float64(elemBytes)
}

// Float constrains the element types the lossy codec applies to.
type Float interface{ ~float32 | ~float64 }

// markDistribute flips a compression-aware buffer into distribution
// mode: the collective's remaining sends carry finished values (see the
// uniformity notes above). A no-op for plain buffers.
func markDistribute(b buf) {
	if d, ok := b.(interface{ beginDistribution() }); ok {
		d.beginDistribution()
	}
}

// compBuf wraps a float slice with the fp16 wire codec. Pointer
// receiver: the distribution flag mutates during the collective.
type compBuf[T Float] struct {
	v    []T
	dist bool
}

// beginDistribution marks the reduce→distribute boundary by
// round-tripping the whole local buffer through binary16: finished
// values land on the codec grid on every rank — senders and non-senders
// alike — before any distribution traffic, so ranks that never forward a
// segment (recursive doubling's core group at non-power-of-2 worlds,
// hierarchical non-leaders) hold exactly the bits their peers decode.
// Without this, quantize-on-send alone leaves non-senders off-grid and
// the group diverges. Idempotent: the second call finds grid values.
func (b *compBuf[T]) beginDistribution() {
	if b.dist {
		return
	}
	b.dist = true
	for i, v := range b.v {
		b.v[i] = T(transport.Float16From(transport.Float16Bits(float32(v))))
	}
}

func (b *compBuf[T]) length() int { return len(b.v) }

func (b *compBuf[T]) bytesFor(n int) int64 { return int64(n) * 2 }

func (b *compBuf[T]) payload(lo, hi int) any { return f16Compress(b.v[lo:hi]) }

func (b *compBuf[T]) setIn(lo, hi int, pay any) {
	dst := b.v[lo:hi]
	switch p := pay.(type) {
	case transport.F16:
		f16Set(dst, p)
	case *transport.RawPayload:
		if v, ok := p.AsF16(); ok {
			f16Set(dst, v)
			p.Release()
			return
		}
		numBuf[T]{v: b.v}.setIn(lo, hi, pay)
	default:
		numBuf[T]{v: b.v}.setIn(lo, hi, pay)
	}
}

func (b *compBuf[T]) reduceIn(lo, hi int, pay any, op Op) {
	dst := b.v[lo:hi]
	switch p := pay.(type) {
	case transport.F16:
		f16Reduce(dst, p, op)
	case *transport.RawPayload:
		// Fused decompress-and-reduce straight out of the transport's
		// frame buffer: one traversal, no decoded scratch slice.
		if v, ok := p.AsF16(); ok {
			f16Reduce(dst, v, op)
			p.Release()
			return
		}
		numBuf[T]{v: b.v}.reduceIn(lo, hi, pay, op)
	default:
		numBuf[T]{v: b.v}.reduceIn(lo, hi, pay, op)
	}
}

// allreduceBuf builds the working buffer for an allreduce of data under
// the requested codec. fp16 applies to the base float slice types;
// anything else (integers, named float types) falls back to the lossless
// numeric buffer regardless of the requested codec.
func allreduceBuf[T Number](data []T, codec WireCodec) buf {
	if codec == CodecFP16 {
		switch v := any(data).(type) {
		case []float32:
			return &compBuf[float32]{v: v}
		case []float64:
			return &compBuf[float64]{v: v}
		}
	}
	return numBuf[T]{v: data}
}

// --- fp16 ---------------------------------------------------------------

// f16Compress quantizes src to binary16 in place (so the sender holds
// exactly what receivers will decode) and returns the wire payload.
func f16Compress[T Float](src []T) transport.F16 {
	out := make(transport.F16, len(src))
	for i, v := range src {
		h := transport.Float16Bits(float32(v))
		out[i] = h
		src[i] = T(transport.Float16From(h))
	}
	return out
}

func f16Set[T Float](dst []T, in transport.F16) {
	checkLen(len(dst), len(in), "fp16")
	for i := range dst {
		dst[i] = T(transport.Float16From(in[i]))
	}
}

func f16Reduce[T Float](dst []T, in transport.F16, op Op) {
	checkLen(len(dst), len(in), "fp16")
	switch op {
	case OpSum:
		for i := range dst {
			dst[i] += T(transport.Float16From(in[i]))
		}
	case OpProd:
		for i := range dst {
			dst[i] *= T(transport.Float16From(in[i]))
		}
	case OpMax:
		for i := range dst {
			if v := T(transport.Float16From(in[i])); v > dst[i] {
				dst[i] = v
			}
		}
	case OpMin:
		for i := range dst {
			if v := T(transport.Float16From(in[i])); v < dst[i] {
				dst[i] = v
			}
		}
	default:
		panic(fmt.Sprintf("mpi: op %v not supported on compressed float payloads", op))
	}
}

func checkLen(dst, in int, codec string) {
	if dst != in {
		panic(fmt.Sprintf("mpi: %s payload of %d elements for a %d-element range", codec, in, dst))
	}
}
