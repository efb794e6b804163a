// Package xfer carries the golden statexfer receive pattern: take the
// byte view, copy out, Release — plus Elems after Release (legal) and
// goroutine handoff with full ownership transfer.
package xfer

import (
	"fmt"

	"raw.example/transport"
)

// recvChunk is the autopilot RecvState inner loop: copy-then-Release,
// with Elems legally read after the Release on the error path.
func recvChunk(cm *transport.Message, state []byte) ([]byte, error) {
	switch d := cm.Data.(type) {
	case []uint8:
		state = append(state, d...)
	case *transport.RawPayload:
		view, ok := transport.RawPayloadView[uint8](d)
		if !ok {
			d.Release()
			return nil, fmt.Errorf("xfer: chunk carries %d non-byte elements", d.Elems())
		}
		state = append(state, view...)
		d.Release()
	default:
		return nil, fmt.Errorf("xfer: unexpected chunk payload %T", cm.Data)
	}
	return state, nil
}

// spawnOwner hands the whole payload to a goroutine that becomes its
// owner; this function keeps nothing and releases nothing.
func spawnOwner(p *transport.RawPayload) {
	go consume(p)
}

func consume(p *transport.RawPayload) {
	defer p.Release()
	if v, ok := p.AsF16(); ok {
		_ = v[0]
	}
}
