// Package transport mirrors the RawPayload surface of the real
// internal/transport package: just enough API shape for the rawrelease
// fixtures. The analyzer matches packages by path suffix, so these
// methods are recognized exactly like the real ones.
package transport

// F16 is a view of binary16 elements.
type F16 []uint16

// ProcID identifies a process.
type ProcID int

// Message is a delivered transport message.
type Message struct {
	From ProcID
	Data any
}

// RawPayload wraps raw-codec bytes still owned by the transport.
type RawPayload struct {
	enc     []byte
	count   int
	release func()
}

// Elems returns the declared element count (legal after Release).
func (p *RawPayload) Elems() int { return p.count }

// Release returns the underlying transport buffer. Idempotent.
func (p *RawPayload) Release() {
	if p.release != nil {
		r := p.release
		p.release = nil
		r()
	}
}

// Decode materializes an owning value and releases the buffer.
func (p *RawPayload) Decode() (any, error) {
	b := append([]byte(nil), p.enc...)
	p.Release()
	return b, nil
}

// AsF16 returns the payload as an F16 view. Valid until Release.
func (p *RawPayload) AsF16() (F16, bool) {
	v, ok := RawPayloadView[uint16](p)
	return F16(v), ok
}

// RawPayloadView returns a typed zero-copy view of the payload.
func RawPayloadView[T uint8 | uint16 | float32](p *RawPayload) ([]T, bool) {
	if p.count == 0 {
		return []T{}, true
	}
	return make([]T, p.count), true
}
