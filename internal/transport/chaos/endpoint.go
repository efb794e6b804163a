package chaos

import (
	"time"

	"repro/internal/transport"
	"repro/internal/vtime"
)

// Endpoint wraps a transport.Endpoint with the engine's send-side fault
// injection. Receives, control handling, identity, and clocks delegate
// unchanged, so the MPI layer runs on a wrapped endpoint exactly as on
// the backend itself.
type Endpoint struct {
	inner transport.Endpoint
	eng   *Engine
	// receiving is set while the owner is inside Recv, TryRecv or PollCtl,
	// so a Send issued from there is the control handler's (a revoke
	// forward, an agreement reply). Such a send is never held: a hold is
	// released at the owner's next receive, and the receive it would wait
	// for is the one already in progress.
	receiving bool
}

var _ transport.Endpoint = (*Endpoint)(nil)

// Wrap attaches the engine to an endpoint. Call after the endpoint knows
// its identity (for tcpnet: after Start).
func (e *Engine) Wrap(inner transport.Endpoint) *Endpoint {
	return &Endpoint{inner: inner, eng: e}
}

// Inner returns the wrapped endpoint.
func (c *Endpoint) Inner() transport.Endpoint { return c.inner }

// Send runs the scenario script over the outbound message, then performs
// whatever deliveries the verdict calls for. Dropped and partitioned
// messages release held (reordered) messages too, so a hold can never
// outlive the message stream that anchors it.
func (c *Endpoint) Send(dst transport.ProcID, tag int, data any, bytes int64) error {
	id := c.inner.ID()
	v, held := c.eng.onSend(id, dst, tag, bytes, !c.receiving)

	// A held or delayed message goes out after Send has returned, and
	// Send only borrows data: keep a copy. Every other verdict delivers
	// before returning.
	if v.hold {
		c.eng.holdMessage(id, heldMsg{dst: dst, tag: tag, data: transport.Owned(data), bytes: bytes})
		return nil
	}

	if v.slow > 0 {
		// The slow-node stall is inline: the sender's own goroutine waits,
		// so messages arrive late but in per-tag order — delay without the
		// reordering OpDelay's detached delivery would introduce.
		select {
		case <-time.After(v.slow):
		case <-c.inner.Done():
		}
	}

	var err error
	switch {
	case v.partitioned:
		err = &transport.PeerFailedError{Proc: dst}
	case v.drop:
		err = nil
	case v.delay > 0:
		data := transport.Owned(data)
		c.eng.wg.Add(1)
		go func() {
			defer c.eng.wg.Done()
			select {
			case <-time.After(v.delay):
			case <-c.inner.Done():
			}
			_ = c.inner.Send(dst, tag, data, bytes)
		}()
		err = nil
	default:
		err = c.inner.Send(dst, tag, data, bytes)
		if err == nil && v.dup {
			_ = c.inner.Send(dst, tag, data, bytes)
		}
	}

	c.flush(held)
	return err
}

// flush releases held messages in capture order. Release errors are
// swallowed: a held message targeting a dead peer is simply lost, as the
// wire would lose it.
func (c *Endpoint) flush(held []heldMsg) {
	for _, h := range held {
		_ = c.inner.Send(h.dst, h.tag, h.data, h.bytes)
	}
}

// enterRecv opens every receive: it releases any held sends first (a
// blocked receiver must not sit on captured messages its peers are waiting
// for) and marks the owner as receiving until leaveRecv.
func (c *Endpoint) enterRecv() {
	c.flush(c.eng.takeHeld(c.inner.ID()))
	c.receiving = true
}

func (c *Endpoint) leaveRecv() { c.receiving = false }

// Recv releases held sends, then delegates.
func (c *Endpoint) Recv(src transport.ProcID, tag int) (*transport.Message, error) {
	c.enterRecv()
	defer c.leaveRecv()
	return c.inner.Recv(src, tag)
}

// TryRecv releases held sends, then delegates.
func (c *Endpoint) TryRecv(src transport.ProcID, tag int) (*transport.Message, error) {
	c.enterRecv()
	defer c.leaveRecv()
	return c.inner.TryRecv(src, tag)
}

// PollCtl releases held sends, then delegates.
func (c *Endpoint) PollCtl() error {
	c.enterRecv()
	defer c.leaveRecv()
	return c.inner.PollCtl()
}

// The rest of the interface delegates untouched.

func (c *Endpoint) ID() transport.ProcID                 { return c.inner.ID() }
func (c *Endpoint) SetCtlHandler(h transport.CtlHandler) { c.inner.SetCtlHandler(h) }
func (c *Endpoint) CtlHandler() transport.CtlHandler     { return c.inner.CtlHandler() }
func (c *Endpoint) Done() <-chan struct{}                { return c.inner.Done() }
func (c *Endpoint) Closed() bool                         { return c.inner.Closed() }
func (c *Endpoint) VClock() *vtime.Clock                 { return c.inner.VClock() }
func (c *Endpoint) Compute(d float64)                    { c.inner.Compute(d) }
