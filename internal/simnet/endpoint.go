package simnet

import (
	"sync"

	"repro/internal/transport"
	"repro/internal/vtime"
)

// CtlPeerDown is the control tag delivered to every live endpoint when a
// process dies. It models the out-of-band failure detector (ULFM) or the
// cascade of TCP connection resets (Gloo). The message's From field is the
// dead process.
const CtlPeerDown = transport.CtlPeerDown

// CtlHandler processes control-plane messages (Tag <= CtlTagBase) on the
// endpoint's own goroutine, from inside Recv or PollCtl. Returning a
// non-nil error aborts the in-flight operation with that error; returning
// nil lets the operation continue (e.g., the dead peer is outside the
// current communicator).
type CtlHandler = transport.CtlHandler

// Endpoint is a process's attachment to the cluster: its mailbox, virtual
// clock, and identity. All methods must be called from the process's own
// goroutine except Deliver, Wake, and close, which the cluster calls.
type Endpoint struct {
	id   ProcID
	node NodeID
	net  *Cluster

	Clock vtime.Clock

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*Message // arrived, not yet matched
	closed bool
	done   chan struct{} // closed when the process is killed

	ctl CtlHandler // nil means control messages are silently consumed
}

// Done returns a channel closed when this process is killed. Blocking
// waits outside the message system (e.g. KV-store barriers) select on it
// so a dead process's goroutine can unwind.
func (e *Endpoint) Done() <-chan struct{} { return e.done }

// ID returns the process identifier.
func (e *Endpoint) ID() ProcID { return e.id }

// Node returns the node hosting this process.
func (e *Endpoint) Node() NodeID { return e.node }

// Cluster returns the cluster this endpoint belongs to.
func (e *Endpoint) Cluster() *Cluster { return e.net }

// VClock returns the endpoint's virtual clock (transport.Endpoint).
func (e *Endpoint) VClock() *vtime.Clock { return &e.Clock }

// NodeOf resolves a process's hosting node, implementing the optional
// transport.Locator capability that enables topology-aware collectives.
func (e *Endpoint) NodeOf(id ProcID) (NodeID, error) { return e.net.NodeOf(id) }

// SetCtlHandler installs the control-plane handler. Layers stack handlers
// by saving and restoring the previous one.
func (e *Endpoint) SetCtlHandler(h CtlHandler) {
	e.mu.Lock()
	e.ctl = h
	e.mu.Unlock()
}

// CtlHandler returns the installed control handler (for save/restore).
func (e *Endpoint) CtlHandler() CtlHandler {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ctl
}

// deliver enqueues m and wakes the owner. Messages to a closed endpoint
// are dropped, as the wire would.
func (e *Endpoint) deliver(m *Message) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	e.queue = append(e.queue, m)
	e.cond.Broadcast()
}

// Wake interrupts a blocked Recv so it re-examines failure state.
func (e *Endpoint) Wake() {
	e.mu.Lock()
	e.cond.Broadcast()
	e.mu.Unlock()
}

// markClosed transitions the endpoint to the dead state and discards
// queued messages.
func (e *Endpoint) markClosed() {
	e.mu.Lock()
	if !e.closed {
		e.closed = true
		close(e.done)
	}
	e.queue = nil
	e.cond.Broadcast()
	e.mu.Unlock()
}

// Closed reports whether the process has been killed.
func (e *Endpoint) Closed() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.closed
}

// Send transmits data to the process dst. Bytes drives the bandwidth cost.
// The receiver gets its own copy of a slice payload (transport.Owned), so
// the sender may reuse data as soon as Send returns. Sending to a dead
// process returns PeerFailedError; sending from a dead process returns
// ErrDead.
func (e *Endpoint) Send(dst ProcID, tag int, data any, bytes int64) error {
	if e.Closed() {
		return ErrDead
	}
	return e.net.send(e, dst, tag, data, bytes)
}

// Recv blocks until a message with the given source and tag arrives.
// src may be AnySource. It returns PeerFailedError when the awaited peer
// is dead, ErrDead when the local process has been killed, or any error
// produced by the control handler (e.g. revocation aborts).
func (e *Endpoint) Recv(src ProcID, tag int) (*Message, error) {
	e.mu.Lock()
	for {
		if e.closed {
			e.mu.Unlock()
			return nil, ErrDead
		}
		// Deliverable data takes priority over control notices: an
		// operation whose message has already arrived completes even if a
		// failure was detected meanwhile (per-operation error semantics —
		// only operations that cannot progress are aborted).
		if i := e.matchLocked(src, tag); i >= 0 {
			m := e.queue[i]
			e.queue = append(e.queue[:i], e.queue[i+1:]...)
			e.mu.Unlock()
			e.Clock.AdvanceTo(m.ArriveAt)
			return m, nil
		}
		if err := e.drainCtlLocked(); err != nil {
			e.mu.Unlock()
			return nil, err
		}
		// drainCtl released the lock; a matching message may have landed.
		if i := e.matchLocked(src, tag); i >= 0 {
			m := e.queue[i]
			e.queue = append(e.queue[:i], e.queue[i+1:]...)
			e.mu.Unlock()
			e.Clock.AdvanceTo(m.ArriveAt)
			return m, nil
		}
		if src != AnySource && e.net.IsDead(src) {
			e.mu.Unlock()
			e.Clock.Advance(e.net.cfg.DetectLatency)
			return nil, &PeerFailedError{Proc: src}
		}
		e.cond.Wait()
	}
}

// TryRecv is a non-blocking Recv: it returns (nil, nil) when no matching
// message is queued, after processing any pending control messages.
func (e *Endpoint) TryRecv(src ProcID, tag int) (*Message, error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrDead
	}
	if i := e.matchLocked(src, tag); i >= 0 {
		m := e.queue[i]
		e.queue = append(e.queue[:i], e.queue[i+1:]...)
		e.mu.Unlock()
		e.Clock.AdvanceTo(m.ArriveAt)
		return m, nil
	}
	if err := e.drainCtlLocked(); err != nil {
		e.mu.Unlock()
		return nil, err
	}
	if i := e.matchLocked(src, tag); i >= 0 {
		m := e.queue[i]
		e.queue = append(e.queue[:i], e.queue[i+1:]...)
		e.mu.Unlock()
		e.Clock.AdvanceTo(m.ArriveAt)
		return m, nil
	}
	e.mu.Unlock()
	return nil, nil
}

// PollCtl processes any pending control messages without receiving data.
// It surfaces the first handler error, if any. Layers call it between
// operations to notice revocations and join requests promptly.
func (e *Endpoint) PollCtl() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrDead
	}
	return e.drainCtlLocked()
}

// drainCtlLocked pulls control messages out of the queue and runs the
// handler on each. The endpoint lock is released around handler calls so
// handlers may send messages. The first handler error stops the drain.
func (e *Endpoint) drainCtlLocked() error {
	for {
		idx := -1
		for i, m := range e.queue {
			if m.Tag <= CtlTagBase {
				idx = i
				break
			}
		}
		if idx < 0 {
			return nil
		}
		m := e.queue[idx]
		e.queue = append(e.queue[:idx], e.queue[idx+1:]...)
		h := e.ctl
		e.mu.Unlock()
		if m.Tag != transport.CtlAgree {
			// A notice interrupts whatever the owner is doing, so it is
			// "now" on arrival. An agreement message is not: it may be from
			// a peer further along in virtual time, for an agreement the
			// owner has yet to reach, and is only set aside. The MPI layer
			// advances the clock when it uses one.
			e.Clock.AdvanceTo(m.ArriveAt)
		}
		var err error
		if h != nil {
			err = h(m)
		}
		e.mu.Lock()
		if err != nil {
			return err
		}
	}
}

func (e *Endpoint) matchLocked(src ProcID, tag int) int {
	for i, m := range e.queue {
		if m.Tag != tag || m.Tag <= CtlTagBase {
			continue
		}
		if src == AnySource || m.From == src {
			return i
		}
	}
	return -1
}

// QueueLen reports the number of queued (unmatched) messages; useful in
// tests and diagnostics.
func (e *Endpoint) QueueLen() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.queue)
}

// Compute advances the endpoint's clock by d virtual seconds of local
// computation.
func (e *Endpoint) Compute(d float64) {
	e.Clock.Advance(d)
}
