package mpi

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/transport"
)

// An allreduce that is its own agreement. The resilient wrapper
// (internal/ulfm) makes every operation uniform — every survivor returns
// the same result, or every survivor repairs — by running an agreement on
// the operation's success after it. But MPIX_Comm_agree is itself an
// allreduce of flags up a tree and a broadcast of the decision down it,
// so for a latency-bound payload the agreement can carry the data as
// well: each contribution going up holds its sender's partial reduction,
// and a successful decision coming down holds the result. One tree and
// one frame per edge each way: in a world of 4, 6 frames over 2 hops,
// where a binomial reduce, a binomial broadcast and the agreement took 12
// over 6.
//
// When the result is valid. Only when the decision is a success: every
// contributor said ok (nobody had the communicator revoked) and the failed
// set is empty. A contribution carries its sender's failure knowledge and
// a member merges it before counting the contribution, so whatever any
// counted contributor knew reaches the root's failed set. An empty one
// therefore means no contributor knew of a failure, so nobody routed
// around anybody: the tree was the fixed one, and every member was summed
// exactly once. A re-routed contribution is by construction one whose
// sender knew somebody dead, so it can only ever be counted toward a
// failure decision, which carries no result.
//
// Summing. A member keeps, per child, the payload of that child's counted
// contribution in the current round — a later one, a duplicate or a
// re-send replaces it, never adds to it — and when it sends up or decides
// it combines its own data and then its children's payloads in rank
// order, so the result is the same bits on every run.

// The payload's element format is the raw wire codec's: a payload is
// tagged with the type tag transport.RawSendView reports for its elements
// (0 for none), and its words hold the little-endian bytes that codec sends.

// packedWords is how many 64-bit words count elements of the raw-codec
// type tag take.
func packedWords(tag, count int) int { return (count*transport.RawElemBytes(byte(tag)) + 7) / 8 }

// AllreduceAgreed reduces data elementwise with op across the
// communicator's members in one fault-tolerant agreement (see above), so
// its outcome is uniform by construction. ok is the agreed outcome: true
// at every survivor, each holding the identical result in data, or false
// at every survivor, with data untouched and the failures the decision
// names recorded for the repair. err is a local error other than a member
// failure — this process dead, above all. The element type must be one
// the raw wire codec carries directly (transport.RawSendView): float32,
// float64, int32, int64, uint8, uint32 or uint64.
func AllreduceAgreed[T Number](c *Comm, data []T, op Op) (ok bool, err error) {
	red := newCarry(data, op)
	if red == nil {
		return false, fmt.Errorf("mpi: agreed allreduce of %T: no raw wire form", data)
	}
	start := time.Now()
	flags := uint32(1)
	if c.Revoked() {
		flags = 0
	}
	dec, err := c.agreeOn(flags, red)
	if err == nil {
		ok = dec.succeeded() && (c.Size() == 1 || red.store(dec))
		for _, pr := range dec.failed {
			c.p.noteFailure(pr)
		}
	}
	observeAllreduce(AlgoAuto, start, !ok)
	return ok, err
}

// AgreedPath reports whether AllreduceAgreed can stand in for
// AllreduceOpts(c, data, op, o) followed by an agreement on its success:
// AllreduceOpts would run the static latency tree for it (the auto
// schedule on a small payload), the codec is lossless for T, and T has a
// raw wire form. Every member answers the same: it depends only on the
// arguments and the world size.
func AgreedPath[T Number](c *Comm, data []T, o AllreduceOptions) bool {
	b := allreduceBuf(data, o.Codec, nil)
	bytes := b.bytesFor(len(data))
	_, lossless := b.(numBuf[T])
	return o.Algo == AlgoAuto && lossless && newCarry(data, OpSum) != nil &&
		(bytes <= smallThreshold || len(data) < c.Size())
}

// agreeCarry is the reduction an agreement carries.
type agreeCarry interface {
	shape() (elem, count int)
	// reduce packs into dst, which is zero, the own contribution combined
	// with each non-nil payload of ins, in order.
	reduce(dst []int64, ins [][]int64)
	// store writes a successful decision's result into the caller's data;
	// false when the decision's payload does not fit it.
	store(dec *agreeMsg) bool
}

// carry is the agreeCarry over the caller's data, which it only reads
// until store.
type carry[T Number] struct {
	tag     int // the elements' raw-codec type tag
	data    []T
	op      Op
	acc, in []T // scratch: the running reduction, an unpacked payload
}

// newCarry wraps data for an agreement, or returns nil when its element
// type has no raw wire form (named types, int).
func newCarry[T Number](data []T, op Op) agreeCarry {
	tag, _, _, ok := transport.RawSendView(data)
	if !ok {
		return nil
	}
	return &carry[T]{tag: int(tag), data: data, op: op}
}

func (c *carry[T]) shape() (int, int) { return c.tag, len(c.data) }

func (c *carry[T]) reduce(dst []int64, ins [][]int64) {
	acc, copied := c.data, false // data is never written: sums go to a copy
	for _, w := range ins {
		if w == nil {
			continue
		}
		if !copied {
			c.acc, copied = append(c.acc[:0], c.data...), true
			acc = c.acc
		}
		c.in = unpack(c.in, w, len(c.data))
		reduceSlice(acc, c.in, c.op)
	}
	copy(wireBytes(dst), wireBytes(acc))
}

func (c *carry[T]) store(dec *agreeMsg) bool {
	if dec.elem != c.tag || dec.count != len(c.data) || len(dec.data) != packedWords(c.tag, len(c.data)) {
		return false
	}
	unpack(c.data, dec.data, len(c.data))
	return true
}

// unpack copies the n elements packed into w into dst, resized to n.
func unpack[T Number](dst []T, w []int64, n int) []T {
	dst = slices.Grow(dst[:0], n)[:n]
	copy(wireBytes(dst), wireBytes(w))
	return dst
}

// wireBytes is the raw codec's body for v: its elements' little-endian
// bytes, aliasing v. Only called on slices with a raw wire form.
func wireBytes(v any) []byte {
	_, _, b, _ := transport.RawSendView(v)
	return b
}
