package mpi

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/transport"
)

// Wire-format gradient compression. A WireCodec selects how a float
// collective's chunks travel: raw little-endian bits (lossless) or IEEE
// binary16 (half the bytes for float32). Compression happens inside the
// buffer abstraction — payload() encodes into a transport payload,
// setIn()/reduceIn() decompress-and-combine in one pass — so every
// allreduce schedule (ring, pipelined, tree, recursive doubling,
// hierarchical) compresses without algorithm changes, and ULFM
// retry-after-shrink replays it like any other collective. The
// per-element work is transport's batch binary16 kernels; payload()
// encodes into the communicator's one reused scratch, which Send only
// borrows, so a steady fp16 allreduce allocates no payloads.
//
// Uniformity. ULFM requires every member to finish a collective with
// bit-identical results. payload() quantizes the sender's range of out
// in place before sending, so a rank holds exactly the values its
// receivers decode; because the binary16 round-trip is idempotent
// (re-encoding an already-representable value returns its own bits),
// this makes sends self-consistent everywhere. The ring's reduce-scatter
// sends through partial(), which only encodes: its step 0 reads in,
// which no schedule writes, and a partial sum it sends later is never
// read again by the sender before the allgather overwrites it.
//
// Where the whole buffer is quantized. The tree, recursive doubling and
// hierarchical schedules round-trip every rank's whole local buffer at
// the reduce→distribute boundary (markDistribute), because
// quantize-on-send cannot reach ranks that never forward a finished
// segment; from there on every value is on the grid, so payload() only
// encodes. The hierarchical schedule marks that boundary between its
// leader ring's two halves. Every other caller of the one K-chunk ring
// (pipeline.go: AlgoRing, Allreduce's ring branch, AlgoPipelinedRing)
// skips that pass: each rank's first allgather send is its own finished
// segment, which payload() quantizes in place, and the allgather
// overwrites every other segment with decoded binary16. Both roads end
// with the same bits.
//
// Forwarding. In the ring's allgather, the chunk a rank receives at
// step s is, byte for byte, the chunk it sends at step s+1: the same
// segment and the same chunk sub-range. So compBuf decodes a received
// chunk into the tensor and holds its binary16 payload (an F16 slice,
// or a lazy RawPayload viewing a pooled frame) in the communicator's
// slot for that chunk; the next step sends those bytes as received,
// with no encode. This holds for every ring, the hierarchical leader
// ring included: there the tensor is on the grid already, so the held
// bytes are what a re-encode would produce. A held payload is released
// exactly once: when its forwarding Send returns, or when the collective
// exits, error and revoke exits included. Chunks of the last step are
// not forwarded and are released at once, so at most one step's K
// chunks are held.
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

// markDistribute flips a compression-aware buffer into distribution
// mode: the collective's remaining sends carry finished values (see the
// uniformity notes above). A no-op for plain buffers. Only the
// hierarchical schedule calls it around a ring; see "Where the whole
// buffer is quantized".
func markDistribute(b buf) {
	if d, ok := b.(interface{ beginDistribution() }); ok {
		d.beginDistribution()
	}
}

// compBuf is numBuf under the fp16 wire codec: it reduces the
// contribution in into v (in is v in place). Pointer receiver: the
// distribution flag mutates during the collective.
type compBuf[T transport.Float] struct {
	in, v []T
	dist  bool
	s     *f16Scratch
}

// f16Scratch is a communicator's reusable fp16 allreduce state, kept
// across operations so a steady fp16 allreduce allocates no payloads:
// the encode buffer every send borrows (Send only borrows it), and the
// chunks a ring allgather holds to forward.
type f16Scratch struct {
	out  transport.F16
	held []heldChunk // indexed by the chunk's slot k within a step
}

// heldChunk is a received allgather chunk kept to travel on unchanged.
type heldChunk struct {
	pay transport.F16         // what the forwarding send carries; nil: none held
	raw *transport.RawPayload // the frame pay views; nil when pay owns its bytes
}

// beginDistribution marks the reduce→distribute boundary by
// round-tripping the whole local buffer through binary16: finished
// values land on the codec grid on every rank — senders and non-senders
// alike — before any distribution traffic, so ranks that never forward a
// segment (recursive doubling's core group at non-power-of-2 worlds,
// hierarchical non-leaders) hold exactly the bits their peers decode.
// Without this, quantize-on-send alone leaves non-senders off-grid and
// the group diverges. Idempotent: the second call finds grid values.
// A ring over every rank never needs it: every ring rank sends, and its
// first allgather send quantizes its own segment while the allgather
// decodes every other one.
func (b *compBuf[T]) beginDistribution() {
	if !b.dist {
		b.dist = true
		transport.QuantizeF16(b.v)
	}
}

func (b *compBuf[T]) length() int { return len(b.v) }

func (b *compBuf[T]) bytesFor(n int) int64 { return int64(n) * 2 }

// payload encodes out's [lo,hi) into the scratch, quantizing the range
// in place until distribution (see the uniformity notes above).
func (b *compBuf[T]) payload(lo, hi int) any {
	out := b.scratch(hi - lo)
	if b.dist {
		transport.EncodeF16(out, b.v[lo:hi])
	} else {
		transport.EncodeQuantizeF16(out, b.v[lo:hi])
	}
	return out
}

// partial encodes in's (own) or out's [lo,hi) into the scratch and
// writes neither.
func (b *compBuf[T]) partial(lo, hi int, own bool) any {
	src := b.v
	if own {
		src = b.in
	}
	out := b.scratch(hi - lo)
	transport.EncodeF16(out, src[lo:hi])
	return out
}

// scratch is the encode buffer resized to n elements.
func (b *compBuf[T]) scratch(n int) transport.F16 {
	b.s.out = slices.Grow(b.s.out[:0], n)[:n]
	return b.s.out
}

func (b *compBuf[T]) inPlace() buf {
	copy(b.v, b.in) // a no-op when in is v
	b.in = b.v
	return b
}

// hold is setIn that keeps pay's binary16 bytes in chunk slot k, for
// the allgather's next step to forward.
func (b *compBuf[T]) hold(k, lo, hi int, pay any) {
	for len(b.s.held) <= k {
		b.s.held = append(b.s.held, heldChunk{})
	}
	h := &b.s.held[k] // empty: its last payload went out before this receive
	switch p := pay.(type) {
	case transport.F16:
		f16Set(b.v[lo:hi], p)
		h.pay = p
	case *transport.RawPayload:
		if v, ok := p.AsF16(); ok {
			f16Set(b.v[lo:hi], v)
			h.pay, h.raw = v, p
			return
		}
		b.hold(k, lo, hi, decoded(p))
	default:
		b.setIn(lo, hi, pay)
	}
}

// forward returns the chunk slot k holds from the step before, or nil
// with none held.
func (b *compBuf[T]) forward(k int) any {
	if k < len(b.s.held) && b.s.held[k].pay != nil {
		return b.s.held[k].pay
	}
	return nil
}

// release gives back chunk slot k's held payload.
func (b *compBuf[T]) release(k int) {
	if k >= len(b.s.held) {
		return
	}
	if r := b.s.held[k].raw; r != nil {
		r.Release()
	}
	b.s.held[k] = heldChunk{}
}

// drop releases every held chunk.
func (b *compBuf[T]) drop() {
	for k := range b.s.held {
		b.release(k)
	}
}

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
		b.setIn(lo, hi, decoded(p))
	default:
		numBuf[T]{v: b.v}.setIn(lo, hi, pay)
	}
}

func (b *compBuf[T]) reduceIn(lo, hi int, pay any, op Op) {
	dst, src := b.v[lo:hi], b.in[lo:hi]
	switch p := pay.(type) {
	case transport.F16:
		f16Reduce(dst, src, p, op)
	case *transport.RawPayload:
		// Fused decompress-and-reduce straight out of the transport's
		// frame buffer: one traversal, no decoded scratch slice.
		if v, ok := p.AsF16(); ok {
			f16Reduce(dst, src, v, op)
			p.Release()
			return
		}
		// Unviewable (misaligned, big-endian): decode, dispatch again.
		b.reduceIn(lo, hi, decoded(p), op)
	default:
		numBuf[T]{in: b.in, v: b.v}.reduceIn(lo, hi, pay, op)
	}
}

// allreduceBuf builds the working buffer for an allreduce of in into
// out under the requested codec. fp16 applies to the base float slice
// types; anything else (integers, named float types) falls back to the
// lossless numeric buffer regardless of the requested codec.
func allreduceBuf[T Number](in, out []T, codec WireCodec, scratch *f16Scratch) buf {
	if codec == CodecFP16 {
		switch v := any(out).(type) {
		case []float32:
			return &compBuf[float32]{in: any(in).([]float32), v: v, s: scratch}
		case []float64:
			return &compBuf[float64]{in: any(in).([]float64), v: v, s: scratch}
		}
	}
	return numBuf[T]{in: in, v: out}
}

// --- fp16 ---------------------------------------------------------------

func f16Set[T transport.Float](dst []T, in transport.F16) {
	checkLen(len(dst), len(in))
	transport.DecodeF16(dst, in)
}

// f16Reduce sets dst to a combined with the decoded in; dst may be a.
func f16Reduce[T transport.Float](dst, a []T, in transport.F16, op Op) {
	checkLen(len(dst), len(in))
	dst, a = dst[:len(in)], a[:len(in)]
	t := transport.Float16Table()
	switch op {
	case OpSum:
		for i, h := range in {
			dst[i] = a[i] + T(t[h])
		}
	case OpProd:
		for i, h := range in {
			dst[i] = a[i] * T(t[h])
		}
	case OpMax:
		for i, h := range in {
			v := a[i]
			if w := T(t[h]); w > v {
				v = w
			}
			dst[i] = v
		}
	case OpMin:
		for i, h := range in {
			v := a[i]
			if w := T(t[h]); w < v {
				v = w
			}
			dst[i] = v
		}
	default:
		panic(fmt.Sprintf("mpi: op %v not supported on compressed float payloads", op))
	}
}

func checkLen(dst, in int) {
	if dst != in {
		panic(fmt.Sprintf("mpi: fp16 payload of %d elements for a %d-element range", in, dst))
	}
}
