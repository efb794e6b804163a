package mpi

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/transport"
)

// This file implements the ULFM fault-tolerance primitives:
//
//   FailureAck   <->  MPIX_Comm_failure_ack
//   Revoke       <->  MPIX_Comm_revoke
//   Agree        <->  MPIX_Comm_agree
//   Shrink       <->  MPIX_Comm_shrink
//   Grow / Join  <->  MPI_Comm_spawn + intercomm merge
//
// Agree and Shrink operate on revoked communicators, as the specification
// requires — they are the recovery path. The agreement protocol itself is
// in agree.go.

// tagJoin is the plain endpoint tag used to hand membership to newly
// spawned processes that do not yet own a communicator. It lives far below
// any communicator tag (which all carry a context id in the high bits).
const tagJoin = 7

// joinInfo hands a newcomer its communicator and the failures the
// members know of. On the wire it is the word vector
// {commID, nProcs, procs..., failed...}.
type joinInfo struct {
	commID uint64
	procs  []ProcID
	failed []ProcID
}

func (ji joinInfo) words() []int64 {
	w := make([]int64, 0, 2+len(ji.procs)+len(ji.failed))
	w = append(w, int64(ji.commID), int64(len(ji.procs)))
	for _, pr := range ji.procs {
		w = append(w, int64(pr))
	}
	for _, pr := range ji.failed {
		w = append(w, int64(pr))
	}
	return w
}

// decodeJoin validates a join message off the wire. The decoded lists
// are copies, so the words may be a view of a transport buffer.
func decodeJoin(w []int64) (joinInfo, error) {
	if len(w) < 2 || w[0] <= 0 || w[1] < 1 || w[1] > int64(len(w)-2) {
		return joinInfo{}, fmt.Errorf("mpi: join message of %d words", len(w))
	}
	ids := make([]ProcID, len(w)-2)
	for i, x := range w[2:] {
		if x < 0 || x > math.MaxInt32 {
			return joinInfo{}, fmt.Errorf("mpi: join message names process %d", x)
		}
		ids[i] = ProcID(x)
	}
	n := int(w[1])
	ji := joinInfo{commID: uint64(w[0]), procs: ids[:n:n]}
	if n < len(ids) {
		ji.failed = ids[n:]
	}
	return ji, nil
}

// FailureAck acknowledges all currently known process failures, so that
// subsequent Agree calls do not raise errors for them.
func (c *Comm) FailureAck() {
	_ = c.p.Poll()
	for id := range c.p.failed {
		c.p.acked[id] = true
	}
}

// Revoke marks the communicator revoked everywhere: locally at once, and
// remotely through a resilient flood (every process forwards the notice on
// first sight). Pending and future non-recovery operations on the
// communicator abort with RevokedError.
func (c *Comm) Revoke() {
	c.p.applyRevoke(c.id)
}

// Agree runs fault-tolerant agreement over the communicator's surviving
// members: it returns the bitwise AND of the flags contributed by the
// processes that participated in the decision, with the guarantee that
// every surviving caller returns the same value, regardless of failures
// during the protocol. If any participant knew of a member failure it had
// not acknowledged, the agreed value is returned together with a
// ProcFailedError at EVERY caller, mirroring MPIX_Comm_agree's uniform
// error semantics — the unacked flag travels inside the agreed decision,
// never from a local lookup, so success-vs-repair cannot diverge across
// members.
func (c *Comm) Agree(flags uint32) (uint32, error) {
	val, failed, unacked, err := c.agreeFull(flags)
	if err != nil {
		return val, err
	}
	for _, pr := range failed {
		c.p.noteFailure(pr)
	}
	if unacked {
		pr := ProcID(-1)
		if len(failed) > 0 {
			pr = failed[0]
		}
		return val, &ProcFailedError{Comm: c.id, Rank: c.rankOfProc(pr), Proc: pr}
	}
	return val, nil
}

// failedProcOf extracts the failed process from either transport-level
// (simnet) or MPI-level process-failure errors.
func failedProcOf(err error) (ProcID, bool) {
	if proc, ok := transport.IsPeerFailed(err); ok {
		return proc, true
	}
	var pf *ProcFailedError
	if errors.As(err, &pf) {
		return pf.Proc, true
	}
	return 0, false
}

// Shrink agrees on the failed-member set and returns a new communicator
// containing exactly the survivors, in parent rank order. It works on
// revoked communicators. Every survivor obtains the same membership and
// the same new context id without further communication.
func (c *Comm) Shrink() (*Comm, error) {
	_, failed, _, err := c.agreeFull(^uint32(0))
	if err != nil {
		return nil, err
	}
	deadSet := make(map[ProcID]bool, len(failed))
	for _, pr := range failed {
		c.p.noteFailure(pr)
		deadSet[pr] = true
	}
	var survivors []ProcID
	for _, pr := range c.procs {
		if !deadSet[pr] {
			survivors = append(survivors, pr)
		}
	}
	return newComm(c.p, c.deriveID(), survivors)
}

// Grow admits newly spawned processes into a fresh communicator formed by
// the members of c (in rank order) followed by newProcs. It is collective
// over c; rank 0 hands each newcomer its membership via a join message.
// The newcomers must call Join on their side.
func (c *Comm) Grow(newProcs []ProcID) (*Comm, error) {
	if err := c.checkCollective(); err != nil {
		return nil, err
	}
	newID := c.deriveID()
	all := append(c.Procs(), newProcs...)
	if c.rank == 0 {
		join := joinInfo{commID: newID, procs: all, failed: c.p.KnownFailed()}.words()
		for _, np := range newProcs {
			if err := c.p.ep.Send(np, tagJoin, join, int64(32+8*len(all))); err != nil {
				if proc, ok := failedProcOf(err); ok {
					// The newcomer died before its join completed. Every
					// member still admits it (the membership list is already
					// agreed), and the next collective's repair pipeline
					// shrinks it back out — aborting here would leave rank 0
					// without the grown communicator its peers just formed.
					c.p.noteFailure(proc)
					transport.Hit(c.p.ep.ID(), transport.PointGrowSend)
					continue
				}
				return nil, c.translate(err)
			}
			transport.Hit(c.p.ep.ID(), transport.PointGrowSend)
		}
	}
	return newComm(c.p, newID, all)
}

// Join is called by a newly spawned process to receive its communicator
// from an ongoing Grow. It blocks until the join message arrives.
func Join(p *Proc) (*Comm, error) {
	transport.Hit(p.ep.ID(), transport.PointJoinRecv)
	m, err := p.ep.Recv(transport.AnySource, tagJoin)
	if err != nil {
		return nil, err
	}
	ji, err := transport.DecodeWords(m.Data, decodeJoin)
	if err != nil {
		return nil, fmt.Errorf("mpi: malformed join message from proc %d: %w", m.From, err)
	}
	for _, pr := range ji.failed {
		p.noteFailure(pr)
	}
	return newComm(p, ji.commID, ji.procs)
}

// failedMembers lists this comm's member processes locally known failed.
func (c *Comm) failedMembers() []ProcID {
	var out []ProcID
	for _, pr := range c.procs {
		if c.p.failed[pr] {
			out = append(out, pr)
		}
	}
	return out
}

// hasUnackedMembers reports whether any member failure is known locally
// but not yet acknowledged via FailureAck.
func (c *Comm) hasUnackedMembers() bool {
	for _, pr := range c.procs {
		if c.p.failed[pr] && !c.p.acked[pr] {
			return true
		}
	}
	return false
}
