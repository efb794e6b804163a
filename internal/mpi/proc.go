// Package mpi implements the message-passing substrate of the
// reproduction: communicators, point-to-point messaging, and the
// collective operations distributed training relies on (allreduce,
// allgather, bcast, ...), together with the ULFM fault-tolerance
// primitives the paper builds on — failure acknowledgement
// (MPIX_Comm_failure_ack / _get_acked), revocation (MPIX_Comm_revoke),
// fault-tolerant agreement (MPIX_Comm_agree), shrinking
// (MPIX_Comm_shrink), and dynamic-process admission used for replacement
// and upscaling.
//
// The package is transport-neutral: it consumes the transport.Endpoint
// interface, so the same communicators and recovery pipeline run over the
// in-process virtual-time simulator (internal/simnet) and over real OS
// processes on TCP (internal/transport/tcpnet).
//
// Semantics follow the ULFM specification's spirit: errors are raised
// per-operation (ProcFailedError) at ranks whose operation could not
// complete; communication with live peers on a failed-but-not-revoked
// communicator keeps working; revocation interrupts all pending and
// future non-recovery operations; agreement and shrink operate on revoked
// communicators. Failure detection is the transport's job: the simulator
// notifies every live process when a process dies, and the TCP backend
// injects the same notice when the rendezvous heartbeat detector declares
// a peer dead — matching ULFM implementations that run an out-of-band
// heartbeat detector.
package mpi

import (
	"fmt"

	"repro/internal/transport"
)

// ProcID is the transport-neutral process identity used throughout the
// MPI layer's API. It is type-identical to simnet.ProcID and
// transport.ProcID, so callers of either backend pass their IDs directly.
type ProcID = transport.ProcID

// Control tags used by the MPI layer on the transport control plane.
const (
	ctlRevoke = transport.CtlTagBase - 2 // payload: revokeNotice
)

func init() {
	// The MPI layer's own control and recovery messages must survive a
	// real wire, not just in-process delivery.
	transport.RegisterWireType(revokeNotice{})
	transport.RegisterWireType(joinInfo{})
}

// revokeNotice is flooded to all communicator members on revocation.
type revokeNotice struct {
	CommID uint64
}

// opScope describes the operation currently in flight on a rank, so the
// control-plane handler can decide whether a failure or revocation notice
// must abort it.
type opScope struct {
	comm          *Comm
	members       map[ProcID]bool // procs whose death aborts the op
	abortOnRevoke bool            // false for recovery ops (agree/shrink)
}

// Proc is a process's MPI runtime state: its endpoint, its local knowledge
// of failures, acknowledged failures, revoked communicators, and the
// membership registry used to forward revocation floods. A Proc is owned
// by its rank goroutine; the control handler also runs on that goroutine
// (from inside Recv/PollCtl), so no locking is needed.
type Proc struct {
	ep      transport.Endpoint
	failed  map[ProcID]bool
	acked   map[ProcID]bool
	revoked map[uint64]bool
	comms   map[uint64][]ProcID
	cur     *opScope

	// failGen counts the failures learned so far and learned records the
	// count each one brought it to, so an agreement can tell whether its
	// tree is current and what it knew when it last contributed.
	failGen int
	learned map[ProcID]int

	// Agreement state (agree.go): the agreement this rank is inside, the
	// last decision per communicator, and messages for agreements it has
	// not entered yet.
	agree  *agreement
	agreed map[uint64]*agreeMsg
	early  []earlyAgree
}

// Attach wires MPI onto a transport endpoint, installing the control
// handler that implements failure notices and revocation flooding.
func Attach(ep transport.Endpoint) *Proc {
	p := &Proc{
		ep:      ep,
		failed:  make(map[ProcID]bool),
		acked:   make(map[ProcID]bool),
		revoked: make(map[uint64]bool),
		comms:   make(map[uint64][]ProcID),
		learned: make(map[ProcID]int),
		agreed:  make(map[uint64]*agreeMsg),
	}
	ep.SetCtlHandler(p.handleCtl)
	return p
}

// Endpoint returns the underlying transport endpoint.
func (p *Proc) Endpoint() transport.Endpoint { return p.ep }

// ID returns the process's cluster identity.
func (p *Proc) ID() ProcID { return p.ep.ID() }

// handleCtl processes control messages on the rank goroutine. A returned
// error aborts the operation currently blocked in Recv.
func (p *Proc) handleCtl(m *transport.Message) error {
	gen := p.failGen
	err := p.dispatchCtl(m)
	if err == nil && p.agree != nil && p.failGen != gen {
		// A failure learned on the side (answering a latecomer that turned
		// out dead, say) reshapes the tree of the agreement in progress.
		err = errAgreeWake
	}
	return err
}

func (p *Proc) dispatchCtl(m *transport.Message) error {
	switch m.Tag {
	case transport.CtlPeerDown:
		dead := m.From
		if p.failed[dead] {
			return nil // already known (e.g. via a transport error)
		}
		p.noteFailure(dead)
		if p.cur != nil && p.cur.members[dead] {
			c := p.cur.comm
			return &ProcFailedError{Comm: c.id, Rank: c.rankOfProc(dead), Proc: dead}
		}
	case ctlRevoke:
		n, ok := m.Data.(revokeNotice)
		if !ok {
			return fmt.Errorf("mpi: malformed revoke notice from proc %d", m.From)
		}
		p.applyRevoke(n.CommID)
		if p.cur != nil && p.cur.abortOnRevoke && p.cur.comm.id == n.CommID {
			return &RevokedError{Comm: n.CommID}
		}
	case transport.CtlAgree:
		return p.onAgree(m)
	}
	return nil
}

// applyRevoke marks the communicator revoked and forwards the notice once
// to every member (reliable flooding: each process forwards on first
// sight, so the notice survives any pattern of failures among a connected
// majority of notified processes).
func (p *Proc) applyRevoke(commID uint64) {
	if p.revoked[commID] {
		return
	}
	p.revoked[commID] = true
	for _, proc := range p.comms[commID] {
		if proc == p.ep.ID() {
			continue
		}
		// Ignore errors: dead members don't need the notice.
		_ = p.ep.Send(proc, ctlRevoke, revokeNotice{CommID: commID}, 16)
	}
}

// Poll processes pending control messages between operations so failure
// and revocation knowledge stays fresh. The returned error is nil in the
// common case: with no operation in flight, notices are only recorded.
func (p *Proc) Poll() error {
	return p.ep.PollCtl()
}

// KnownFailed returns this process's current local view of failed
// processes (not necessarily acknowledged).
func (p *Proc) KnownFailed() []ProcID {
	out := make([]ProcID, 0, len(p.failed))
	for id := range p.failed {
		out = append(out, id)
	}
	sortProcs(out)
	return out
}

// noteFailure records an externally discovered failure (e.g. a transport
// error observed before the detector notice arrived).
func (p *Proc) noteFailure(id ProcID) {
	if !p.failed[id] {
		p.failed[id] = true
		p.failGen++
		p.learned[id] = p.failGen
	}
}

// begin installs an operation scope; end removes it.
func (p *Proc) begin(s *opScope) { p.cur = s }
func (p *Proc) end()             { p.cur = nil }

func sortProcs(ids []ProcID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}
