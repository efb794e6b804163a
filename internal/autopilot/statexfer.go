package autopilot

import (
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/transport"
)

// Newcomer state transfer: the joining rank receives the model/optimizer
// state as a chunked stream over the plain endpoint tag space, below the
// communicator tag plane, so it never collides with collective traffic.
// The stream is not concurrent with training: the decision seat runs it
// inside node.Boundary, after the Grow and before the next collective,
// so the rest of the world waits on the seat for the whole stream. The
// optional token bucket only caps the stream's own bandwidth.
//
// Wire protocol (all on plain tags, clear of mpi's tagJoin=7 and the
// comm tag plane which always carries a context id in bits 32..63):
//
//	offer  (tag 8):  []int64{total, chunkBytes, crc, step}
//	chunks (tag 9):  []uint8 slices, rawU8 zero-copy path, in order
//	ack    (tag 10): []int64{ok, crc}, ok 1 or 0
//
// The offer and ack are fixed-layout word vectors on the raw codec, like
// every control message; decodeOffer and decodeAck validate them. The
// receiver verifies length and CRC32 before acking; the sender treats a
// missing or failed ack as a failed swap-in.
const (
	tagStateOffer = 8
	tagStateChunk = 9
	tagStateAck   = 10
)

// stateOffer announces a state stream to the joining rank.
type stateOffer struct {
	total      int64  // total state bytes
	chunkBytes int    // chunk size the sender will use
	crc        uint32 // IEEE CRC32 of the full state
	step       int64  // training step the state is valid at (epoch boundary)
}

func (o stateOffer) words() []int64 {
	return []int64{o.total, int64(o.chunkBytes), int64(o.crc), o.step}
}

// decodeOffer validates an offer off the wire. Both counts fit 31 bits,
// so a forged total cannot make the receiver reserve more than 2 GiB.
func decodeOffer(w []int64) (stateOffer, error) {
	switch {
	case len(w) != 4:
		return stateOffer{}, fmt.Errorf("autopilot: state offer of %d words", len(w))
	case w[0] < 0 || w[0] > math.MaxInt32 || w[3] < 0:
		return stateOffer{}, fmt.Errorf("autopilot: state offer of %d bytes at step %d", w[0], w[3])
	case w[1] <= 0 || w[1] > math.MaxInt32:
		return stateOffer{}, fmt.Errorf("autopilot: state offer in chunks of %d bytes", w[1])
	case w[2] < 0 || w[2] > math.MaxUint32:
		return stateOffer{}, fmt.Errorf("autopilot: state offer crc %#x", w[2])
	}
	return stateOffer{total: w[0], chunkBytes: int(w[1]), crc: uint32(w[2]), step: w[3]}, nil
}

// stateAck closes the handshake from the receiver.
type stateAck struct {
	ok  bool
	crc uint32
}

func (a stateAck) words() []int64 {
	w := []int64{0, int64(a.crc)}
	if a.ok {
		w[0] = 1
	}
	return w
}

func decodeAck(w []int64) (stateAck, error) {
	if len(w) != 2 || (w[0] != 0 && w[0] != 1) || w[1] < 0 || w[1] > math.MaxUint32 {
		return stateAck{}, fmt.Errorf("autopilot: malformed state ack of %d words", len(w))
	}
	return stateAck{ok: w[0] == 1, crc: uint32(w[1])}, nil
}

// XferOptions configures one state transfer.
type XferOptions struct {
	// RateBytesPerSec caps the stream bandwidth (0 = unlimited).
	RateBytesPerSec float64
	// Burst is the token-bucket capacity in bytes (0 = one second of rate).
	Burst float64
	// ChunkBytes is the stream chunk size (0 = 256 KiB).
	ChunkBytes int
	// Limiter overrides the internally built token bucket — the vtime
	// test seam. When set, RateBytesPerSec and Burst are ignored.
	Limiter *Limiter
	// Step is stamped into the offer so the newcomer knows which epoch
	// boundary the state belongs to.
	Step int64
}

const defaultChunkBytes = 256 << 10

func (o XferOptions) limiter() *Limiter {
	if o.Limiter != nil {
		return o.Limiter
	}
	if o.RateBytesPerSec <= 0 {
		return nil
	}
	return NewLimiter(o.RateBytesPerSec, o.Burst)
}

// SendState streams state to the joining process dst: one offer, then
// bandwidth-capped chunks, then a blocking wait for the receiver's ack.
// It returns an error if the receiver dies mid-stream or reports a
// checksum mismatch — the caller records a failed swap and lets the next
// collective repair the newcomer out.
func SendState(ep transport.Endpoint, dst transport.ProcID, state []byte, opts XferOptions) error {
	chunk := opts.ChunkBytes
	if chunk <= 0 {
		chunk = defaultChunkBytes
	}
	lim := opts.limiter()
	self := ep.ID()
	start := ep.VClock().Now()

	offer := stateOffer{
		total:      int64(len(state)),
		chunkBytes: chunk,
		crc:        crc32.ChecksumIEEE(state),
		step:       opts.Step,
	}
	if err := ep.Send(dst, tagStateOffer, offer.words(), 32); err != nil {
		return fmt.Errorf("autopilot: state offer to %d: %w", dst, err)
	}
	transport.Hit(self, transport.PointStateOffer)

	for off := 0; off < len(state); off += chunk {
		end := off + chunk
		if end > len(state) {
			end = len(state)
		}
		lim.Take(end - off)
		// Chunk slices are immutable views of state; Send does not copy
		// in-process, which is exactly the rawU8 zero-copy contract.
		if err := ep.Send(dst, tagStateChunk, state[off:end], int64(end-off)); err != nil {
			obsSwapFailures.Inc()
			return fmt.Errorf("autopilot: state chunk at %d/%d to %d: %w", off, len(state), dst, err)
		}
		transport.Hit(self, transport.PointStateChunk)
	}

	m, err := ep.Recv(dst, tagStateAck)
	if err != nil {
		obsSwapFailures.Inc()
		return fmt.Errorf("autopilot: state ack from %d: %w", dst, err)
	}
	ack, err := transport.DecodeWords(m.Data, decodeAck)
	if err != nil || !ack.ok || ack.crc != offer.crc {
		obsSwapFailures.Inc()
		return fmt.Errorf("autopilot: state stream to %d rejected (ack %+v, %v)", dst, ack, err)
	}
	obsXferBytes.Add(uint64(len(state)))
	obsXferSeconds.Observe(ep.VClock().Now() - start)
	return nil
}

// RecvState blocks for a state stream from any sender and returns the
// reassembled state and the step it is valid at. The received bytes are
// verified against the offer's length and CRC32 and acked back; a
// mismatch acks failure and returns an error.
func RecvState(ep transport.Endpoint) (state []byte, step int64, err error) {
	m, err := ep.Recv(transport.AnySource, tagStateOffer)
	if err != nil {
		return nil, 0, fmt.Errorf("autopilot: state offer: %w", err)
	}
	offer, err := transport.DecodeWords(m.Data, decodeOffer)
	if err != nil {
		return nil, 0, fmt.Errorf("autopilot: state offer from %d: %w", m.From, err)
	}
	src := m.From
	self := ep.ID()

	state = make([]byte, 0, offer.total)
	for int64(len(state)) < offer.total {
		cm, err := ep.Recv(src, tagStateChunk)
		if err != nil {
			return nil, 0, fmt.Errorf("autopilot: state chunk at %d/%d: %w", len(state), offer.total, err)
		}
		switch d := cm.Data.(type) {
		case []uint8:
			// In-process transports deliver the sender's slice view.
			state = append(state, d...)
		case *transport.RawPayload:
			// Wire transports deliver the pooled frame lazily; take the
			// byte view, copy out, and release the buffer.
			view, ok := transport.RawPayloadView[uint8](d)
			if !ok {
				d.Release()
				return nil, 0, fmt.Errorf("autopilot: state chunk carries %d non-byte elements", d.Elems())
			}
			state = append(state, view...)
			d.Release()
		default:
			return nil, 0, fmt.Errorf("autopilot: unexpected chunk payload %T", cm.Data)
		}
		transport.Hit(self, transport.PointStateRecv)
	}

	crc := crc32.ChecksumIEEE(state)
	ack := stateAck{ok: int64(len(state)) == offer.total && crc == offer.crc, crc: crc}
	transport.Hit(self, transport.PointStateAck)
	if err := ep.Send(src, tagStateAck, ack.words(), 16); err != nil {
		return nil, 0, fmt.Errorf("autopilot: state ack to %d: %w", src, err)
	}
	if !ack.ok {
		return nil, 0, fmt.Errorf("autopilot: state stream corrupt: got %d bytes crc %08x, offered %d crc %08x",
			len(state), crc, offer.total, offer.crc)
	}
	return state, offer.step, nil
}
