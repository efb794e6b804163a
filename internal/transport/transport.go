// Package transport defines the message-transport abstraction the MPI
// layer is built on: process identities, messages, control-plane tags,
// transport error classes, and the Endpoint interface every backend
// implements.
//
// Two backends exist today: internal/simnet (the in-process virtual-time
// simulator, used by the experiment harnesses and most tests) and
// internal/transport/tcpnet (real OS processes over TCP with
// length-prefixed binary framing, used together with internal/rendezvous
// for multi-process runs). The MPI layer consumes only this interface, so
// the collectives and the ULFM recovery pipeline — revoke, agree, shrink,
// retry — run identically over both.
package transport

import (
	"reflect"

	"repro/internal/vtime"
)

// ProcID identifies a process (rank container). IDs are global to a run
// and never reused, so a respawned worker is distinguishable from the
// failed one it replaces.
type ProcID int

// NodeID identifies a physical node (used by topology-aware collectives).
type NodeID int

// AnySource matches any sender in Recv.
const AnySource ProcID = -1

// Reserved tag space: tags at or below CtlTagBase are control-plane tags
// used by higher layers (failure notices, ULFM revocation). Recv surfaces
// them through the endpoint's control handler instead of matching them.
const CtlTagBase = -1000

// CtlPeerDown is the control tag delivered to every live endpoint when a
// process dies. It models the out-of-band failure detector: the simulator
// synthesizes it on Kill; the TCP backend injects it when the rendezvous
// heartbeat detector declares a peer dead. The message's From field is the
// dead process.
const CtlPeerDown = CtlTagBase - 1

// CtlAgree is the control tag fault-tolerant agreement rides (payload: a
// flat []int64, see internal/mpi). It sits on the control plane for its
// delivery semantics only — the MPI layer consumes every agreement
// message in its control handler, from inside whatever Recv or PollCtl
// runs next, so none is ever left parked in a mailbox. It is protocol
// traffic, not a detector verdict: fault injectors treat it like data
// (a partition cuts it, reorder and duplicate rules apply to it).
const CtlAgree = CtlTagBase - 3

// Message is a unit of communication between processes. Data is an opaque
// payload (typically a typed slice copied by the sender); Bytes drives the
// cost model and may exceed the in-memory size of Data when the payload
// stands in for a larger virtual buffer. ArriveAt is the arrival time at
// the destination on the backend's clock (virtual seconds in simnet,
// wall-clock seconds since endpoint start in tcpnet).
type Message struct {
	From     ProcID
	To       ProcID
	Tag      int
	Data     any
	Bytes    int64
	ArriveAt float64
}

// CtlHandler processes control-plane messages (Tag <= CtlTagBase) on the
// endpoint's own goroutine, from inside Recv or PollCtl. Returning a
// non-nil error aborts the in-flight operation with that error; returning
// nil lets the operation continue (e.g., the dead peer is outside the
// current communicator).
type CtlHandler func(m *Message) error

// Endpoint is a process's attachment to its transport: mailbox, identity,
// and clock. All methods must be called from the process's own goroutine
// except those a backend documents as safe for its own internal use.
type Endpoint interface {
	// ID returns the process identifier.
	ID() ProcID

	// Send transmits data to the process dst. Bytes drives the cost
	// model. Send borrows data only until it returns: the caller may
	// overwrite or reuse it afterwards, so a backend that delivers after
	// returning (an in-process mailbox, a deferred delivery) takes its own
	// copy first (Owned). Sending to a dead process returns
	// PeerFailedError; sending from a dead process returns ErrDead.
	Send(dst ProcID, tag int, data any, bytes int64) error

	// Recv blocks until a message with the given source and tag arrives.
	// src may be AnySource. It returns PeerFailedError when the awaited
	// peer is dead, ErrDead when the local process has been killed, or
	// any error produced by the control handler (e.g. revocation aborts).
	Recv(src ProcID, tag int) (*Message, error)

	// TryRecv is a non-blocking Recv: it returns (nil, nil) when no
	// matching message is queued, after processing pending control
	// messages.
	TryRecv(src ProcID, tag int) (*Message, error)

	// PollCtl processes pending control messages without receiving data,
	// surfacing the first handler error.
	PollCtl() error

	// SetCtlHandler installs the control-plane handler. Layers stack
	// handlers by saving and restoring the previous one via CtlHandler.
	SetCtlHandler(h CtlHandler)

	// CtlHandler returns the installed control handler (for save/restore).
	CtlHandler() CtlHandler

	// Done returns a channel closed when this process is killed, so
	// blocking waits outside the message system can unwind.
	Done() <-chan struct{}

	// Closed reports whether the process has been killed or shut down.
	Closed() bool

	// VClock returns the endpoint's clock for cost accounting by higher
	// layers: virtual time in the simulator, wall-clock seconds since
	// endpoint start for real transports.
	VClock() *vtime.Clock

	// Compute charges d seconds of local computation to the clock. Real
	// transports may make this a no-op (wall time advances by itself).
	Compute(d float64)
}

// Owned returns a payload the caller may keep after the Send that lent
// it returns: a slice is copied into a fresh slice of the same type
// (named element types such as F16 survive), any other value is returned
// unchanged. Backends that deliver after Send returns call it on the
// borrowed payload.
func Owned(v any) any {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Slice || rv.IsNil() {
		return v
	}
	out := reflect.MakeSlice(rv.Type(), rv.Len(), rv.Len())
	reflect.Copy(out, rv)
	return out.Interface()
}

// Locator is an optional Endpoint capability: backends that know the
// process-to-node placement implement it, enabling topology-aware
// collectives (hierarchical allreduce). Backends without placement
// knowledge simply don't implement it and callers fall back to a flat
// topology.
type Locator interface {
	NodeOf(id ProcID) (NodeID, error)
}
