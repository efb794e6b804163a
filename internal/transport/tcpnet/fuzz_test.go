package tcpnet

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/vtime"
)

// fuzzZeroCopyMin hands every raw payload that has a header to the
// lazy path, so short fuzz inputs reach ParseRawPayload the way 16 KiB
// gradient chunks do in production.
const fuzzZeroCopyMin = transport.RawPayloadHeaderLen

// FuzzReadFrame holds the read loop's two steps to one contract on
// arbitrary bytes from a peer: readFrameBuf returns an error or a frame
// that is exactly what the bytes say, and never grows its scratch buffer
// past what the peer actually sent (a length prefix alone must not drive
// an allocation); readMessage's ParseRawPayload hand-off returns an error
// or a message, and every pooled frame buffer it checks out comes back
// once the message is consumed. The seeds in testdata/fuzz/FuzzReadFrame
// are a valid small frame, a valid raw frame, a length prefix above
// DefaultMaxFrame, a prefix that claims megabytes it never sends, a
// truncated header, a truncated body, and a raw count beyond the body.
func FuzzReadFrame(f *testing.F) {
	seed, err := appendFrame(nil, 1, 2, 7, 24, []float64{1, 2, 3}, DefaultMaxFrame)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, in []byte) {
		fr, buf, err := readFrameBuf(bytes.NewReader(in), make([]byte, 0, 64), DefaultMaxFrame)
		if limit := max(frameGrowMin, 2*(payloadAlignPad+len(in))); cap(buf) > limit {
			t.Fatalf("%d input bytes grew the scratch buffer to %d (limit %d)", len(in), cap(buf), limit)
		}
		if err == nil {
			n := int(binary.BigEndian.Uint32(in[:4]))
			if n != frameHeaderLen+len(fr.Payload) || 4+n > len(in) || n > DefaultMaxFrame {
				t.Fatalf("frame of body %d accepted with prefix %d from %d bytes",
					frameHeaderLen+len(fr.Payload), n, len(in))
			}
			hdr := in[4 : 4+frameHeaderLen]
			if fr.From != int64(binary.BigEndian.Uint64(hdr[0:8])) ||
				fr.To != int64(binary.BigEndian.Uint64(hdr[8:16])) ||
				fr.Tag != int64(binary.BigEndian.Uint64(hdr[16:24])) ||
				fr.Bytes != int64(binary.BigEndian.Uint64(hdr[24:32])) {
				t.Fatalf("frame header %+v does not match the bytes", *fr)
			}
			if !bytes.Equal(fr.Payload, in[4+frameHeaderLen:4+n]) {
				t.Fatalf("frame payload does not match the bytes")
			}
		}

		before := OutstandingFrameBufs()
		bufp := getFrameBuf()
		m, merr := readMessage(bytes.NewReader(in), &bufp, DefaultMaxFrame, fuzzZeroCopyMin)
		if err != nil && merr == nil {
			t.Fatalf("readMessage accepted what readFrameBuf rejected (%v)", err)
		}
		if merr == nil {
			if rp, ok := m.Data.(*transport.RawPayload); ok {
				if _, derr := rp.Decode(); derr != nil {
					t.Fatalf("handed-off raw payload fails to decode: %v", derr)
				}
			}
		}
		putFrameBuf(bufp)
		if !vtime.WaitUntil(2*time.Second, func() bool { return OutstandingFrameBufs() == before }) {
			t.Fatalf("frame buffers outstanding: %d, want %d", OutstandingFrameBufs(), before)
		}
	})
}
