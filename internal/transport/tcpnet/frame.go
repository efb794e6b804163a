package tcpnet

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/transport"
)

// Wire format: length-prefixed binary frames. Each frame is a 4-byte
// big-endian body length N followed by the N-byte body:
//
//	offset 0  : int64  From   (sender ProcID)
//	offset 8  : int64  To     (destination ProcID)
//	offset 16 : int64  Tag    (message tag; control tags are negative)
//	offset 24 : int64  Bytes  (cost-model payload size, may exceed wire size)
//	offset 32 : wire-codec payload (empty for nil payloads)
//
// Both reader and writer reject frames larger than the configured limit,
// and the reader grows its buffer with the bytes that arrive rather than
// with the prefix, so a corrupted or hostile length prefix cannot drive
// an allocation larger than what the peer actually sent.

// frameHeaderLen is the fixed body prefix before the payload.
const frameHeaderLen = 32

// DefaultMaxFrame bounds a frame's body (header + payload).
const DefaultMaxFrame = 64 << 20

type frame struct {
	From    int64
	To      int64
	Tag     int64
	Bytes   int64
	Payload []byte
}

// framePool recycles frame assembly and read scratch buffers between the
// send path (one buffer per in-flight Send) and the per-connection read
// loops (one buffer held for the connection's lifetime). The payload
// decoder copies into freshly typed slices before a buffer is reused, so
// pooled bytes never alias application data — in particular, a buffer that
// carried one collective's chunks cannot leak them into a post-recovery
// retry.
var framePool = sync.Pool{
	New: func() any {
		obsFramePoolMisses.Inc()
		b := make([]byte, 0, 4096)
		return &b
	},
}

// frameBufsOut tracks gets minus puts. Steady state is the number of live
// connections (each read loop holds one buffer); after every endpoint has
// closed it must return to zero — the pooled-buffer leak check the chaos
// conformance suite asserts.
var frameBufsOut atomic.Int64

// OutstandingFrameBufs reports the number of pooled frame buffers
// currently checked out (read-loop scratch + in-flight sends). Exposed
// for leak-checking tests.
func OutstandingFrameBufs() int64 { return frameBufsOut.Load() }

func getFrameBuf() *[]byte {
	frameBufsOut.Add(1)
	obsFramePoolGets.Inc()
	return framePool.Get().(*[]byte)
}

func putFrameBuf(b *[]byte) {
	if *b == nil {
		// Never pool a nil slice: an error path that lost the buffer must
		// not poison the pool for later senders.
		*b = make([]byte, 0, 4096)
	}
	*b = (*b)[:0]
	frameBufsOut.Add(-1)
	framePool.Put(b)
}

// appendFrame assembles a complete frame (length prefix, header, encoded
// payload) onto dst, encoding data with the transport wire codec directly
// into the buffer — no intermediate payload allocation. It returns the
// extended buffer, or an error if the payload fails to encode or the
// resulting body exceeds maxFrame (nothing is written in either case, and
// dst is returned unchanged in length).
func appendFrame(dst []byte, from, to transport.ProcID, tag int, bytes int64, data any, maxFrame int) ([]byte, error) {
	base := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length prefix, patched below
	var hdr [frameHeaderLen]byte
	binary.BigEndian.PutUint64(hdr[0:8], uint64(int64(from)))
	binary.BigEndian.PutUint64(hdr[8:16], uint64(int64(to)))
	binary.BigEndian.PutUint64(hdr[16:24], uint64(int64(tag)))
	binary.BigEndian.PutUint64(hdr[24:32], uint64(bytes))
	dst = append(dst, hdr[:]...)
	dst, err := transport.AppendPayload(dst, data)
	if err != nil {
		return dst[:base], err
	}
	n := len(dst) - base - 4
	if n > maxFrame {
		return dst[:base], &oversizeError{err: fmt.Errorf(
			"tcpnet: frame body of %d bytes exceeds limit %d", n, maxFrame)}
	}
	binary.BigEndian.PutUint32(dst[base:base+4], uint32(n))
	return dst, nil
}

// appendVecHeader appends the length prefix and frame header for a
// scatter-gather send whose total body length n (header + payload) is
// known up front, so no prefix patching is needed. The payload bytes
// follow in separate iovecs via net.Buffers; only the header lives in
// the pooled buffer.
func appendVecHeader(dst []byte, n int, from, to transport.ProcID, tag int, bytes int64) []byte {
	var hdr [4 + frameHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(n))
	binary.BigEndian.PutUint64(hdr[4:12], uint64(int64(from)))
	binary.BigEndian.PutUint64(hdr[12:20], uint64(int64(to)))
	binary.BigEndian.PutUint64(hdr[20:28], uint64(int64(tag)))
	binary.BigEndian.PutUint64(hdr[28:36], uint64(bytes))
	return append(dst, hdr[:]...)
}

// writeFrame serializes f (with an already-encoded payload) to w,
// rejecting oversized frames before any bytes hit the wire.
func writeFrame(w io.Writer, f *frame, maxFrame int) error {
	n := frameHeaderLen + len(f.Payload)
	if n > maxFrame {
		return fmt.Errorf("tcpnet: frame body of %d bytes exceeds limit %d", n, maxFrame)
	}
	buf := make([]byte, 4+frameHeaderLen, 4+n)
	binary.BigEndian.PutUint32(buf[0:4], uint32(n))
	binary.BigEndian.PutUint64(buf[4:12], uint64(f.From))
	binary.BigEndian.PutUint64(buf[12:20], uint64(f.To))
	binary.BigEndian.PutUint64(buf[20:28], uint64(f.Tag))
	binary.BigEndian.PutUint64(buf[28:36], uint64(f.Bytes))
	buf = append(buf, f.Payload...)
	_, err := w.Write(buf)
	return err
}

// payloadAlignPad offsets the frame body inside the read scratch buffer
// so the raw-codec bulk bytes land 8-byte aligned: the body starts with
// the 32-byte frame header plus the 10-byte raw payload header, so
// shifting the body by 6 puts the first element at offset 48 of an
// (8-aligned) pooled allocation. That alignment is what lets receivers
// take in-place typed views of the payload (transport.RawPayloadView)
// instead of decoding into a fresh slice.
const payloadAlignPad = 6

// frameGrowMin is the first step by which readBody grows a scratch
// buffer too small for the frame it is reading.
const frameGrowMin = 64 << 10

// readFrameBuf reads one frame from r using buf as scratch storage,
// growing it as needed. The returned frame's Payload aliases the returned
// buffer, which callers pass back in on the next call — one allocation per
// connection, amortized, instead of one per frame. A short read of an
// already-started frame reports io.ErrUnexpectedEOF (truncation); a clean
// EOF before the length prefix reports io.EOF (orderly shutdown).
func readFrameBuf(r io.Reader, buf []byte, maxFrame int) (*frame, []byte, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, buf, err
	}
	n := int(binary.BigEndian.Uint32(lenBuf[:]))
	if n < frameHeaderLen {
		return nil, buf, fmt.Errorf("tcpnet: frame body of %d bytes shorter than %d-byte header", n, frameHeaderLen)
	}
	if n > maxFrame {
		return nil, buf, fmt.Errorf("tcpnet: frame body of %d bytes exceeds limit %d", n, maxFrame)
	}
	buf, err := readBody(r, buf, n)
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, buf, err
	}
	body := buf[payloadAlignPad : payloadAlignPad+n]
	f := &frame{
		From:  int64(binary.BigEndian.Uint64(body[0:8])),
		To:    int64(binary.BigEndian.Uint64(body[8:16])),
		Tag:   int64(binary.BigEndian.Uint64(body[16:24])),
		Bytes: int64(binary.BigEndian.Uint64(body[24:32])),
	}
	if n > frameHeaderLen {
		f.Payload = body[frameHeaderLen:]
	}
	return f, buf, nil
}

// readBody reads an n-byte frame body into buf at payloadAlignPad and
// returns the buffer, grown if it was too small. Growth follows the bytes
// that actually arrive, not the length prefix: the buffer doubles (from
// at least frameGrowMin) each time it fills, so a corrupt or hostile
// prefix below the frame limit costs an allocation the size of what the
// peer really sent, not of what it claimed. A warm pooled buffer already
// fits and takes the single ReadFull.
func readBody(r io.Reader, buf []byte, n int) ([]byte, error) {
	need := payloadAlignPad + n
	if cap(buf) >= need {
		buf = buf[:need]
		_, err := io.ReadFull(r, buf[payloadAlignPad:])
		return buf, err
	}
	got := payloadAlignPad
	buf = buf[:cap(buf)]
	for got < need {
		if got >= len(buf) {
			grown := make([]byte, min(need, max(2*len(buf), frameGrowMin)))
			copy(grown, buf)
			buf = grown
		}
		k, err := io.ReadFull(r, buf[got:min(need, len(buf))])
		got += k
		if err != nil {
			return buf, err
		}
	}
	return buf[:need], nil
}

// readFrame reads one frame with a private buffer (test convenience).
func readFrame(r io.Reader, maxFrame int) (*frame, error) {
	f, _, err := readFrameBuf(r, nil, maxFrame)
	return f, err
}
