package mpi

import (
	"fmt"

	"repro/internal/transport"
)

// WorldID is the context identifier of the initial world communicator.
const WorldID uint64 = 1

// Comm is a communicator: an ordered group of processes with a private
// context (tag namespace). Comms are per-rank objects; ranks hold their
// own view, as in MPI.
type Comm struct {
	p      *Proc
	id     uint64
	rank   int
	procs  []ProcID // rank -> process
	rankOf map[ProcID]int

	opSeq      int             // collective sequence number, advances in lockstep SPMD
	agreeSeq   int             // out-of-band agreement sequence (see nextAgreeSeq)
	members    map[ProcID]bool // memberSet, built on first use
	derivedSeq int             // number of derived communicators created from this one
	f16        f16Scratch      // fp16 allreduce payload scratch and held allgather chunks
}

// World builds the initial communicator over the given process list. Every
// participating rank must call it with the identical list; rank is the
// caller's position in procs.
func World(p *Proc, procs []ProcID) (*Comm, error) {
	return newComm(p, WorldID, procs)
}

func newComm(p *Proc, id uint64, procs []ProcID) (*Comm, error) {
	rank := -1
	rankOf := make(map[ProcID]int, len(procs))
	for i, pr := range procs {
		rankOf[pr] = i
		if pr == p.ep.ID() {
			rank = i
		}
	}
	if rank < 0 {
		return nil, fmt.Errorf("mpi: process %d is not a member of comm %#x", p.ep.ID(), id)
	}
	c := &Comm{
		p:      p,
		id:     id,
		rank:   rank,
		procs:  append([]ProcID(nil), procs...),
		rankOf: rankOf,
	}
	p.comms[id] = c.procs // registry for revoke forwarding
	return c, nil
}

// Rank returns the caller's rank in the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks.
func (c *Comm) Size() int { return len(c.procs) }

// ID returns the communicator's context identifier.
func (c *Comm) ID() uint64 { return c.id }

// Proc returns the owning MPI process runtime.
func (c *Comm) Proc() *Proc { return c.p }

// Procs returns the rank-ordered process list (a copy).
func (c *Comm) Procs() []ProcID {
	return append([]ProcID(nil), c.procs...)
}

// ProcOf returns the process occupying the given rank.
func (c *Comm) ProcOf(rank int) ProcID { return c.procs[rank] }

// rankOfProc returns the rank of a process, or -1 if not a member.
func (c *Comm) rankOfProc(id ProcID) int {
	if r, ok := c.rankOf[id]; ok {
		return r
	}
	return -1
}

// Revoked reports whether this communicator has been revoked (locally
// known; revocation knowledge propagates via the flood).
func (c *Comm) Revoked() bool { return c.p.revoked[c.id] }

// Endpoint clock helpers for cost accounting by higher layers.
func (c *Comm) Now() float64      { return c.p.ep.VClock().Now() }
func (c *Comm) Compute(d float64) { c.p.ep.Compute(d) }

// --- tag construction -------------------------------------------------
//
// Layout (positive 64-bit int):
//   bits [32..63]: communicator context id
//   bit  31      : point-to-point flag
//   bit  30      : agreement wait flag (nothing is ever sent on it)
//   bits [8..29] : sequence number or user tag (22 bits)
//   bits [0..7]  : phase within a collective

const (
	p2pFlag   = 1 << 31
	agreeFlag = 1 << 30
	seqMask   = 0x3fffff
	tagShift  = 8
)

func (c *Comm) collTag(seq, phase int) int {
	return int(c.id)<<32 | (seq&seqMask)<<tagShift | (phase & 0xff)
}

// agreeWaitTag is the tag an agreement blocks in Recv on. No message ever
// carries it: agreement traffic rides transport.CtlAgree and reaches the
// agreement through the control handler, which ends the Recv.
func (c *Comm) agreeWaitTag() int {
	return int(c.id)<<32 | agreeFlag
}

func (c *Comm) p2pTag(utag int) int {
	return int(c.id)<<32 | p2pFlag | (utag&seqMask)<<tagShift
}

// OpCount reports how many collective operations have started on this
// communicator at this rank — a diagnostic for verifying SPMD alignment.
func (c *Comm) OpCount() int { return c.opSeq }

// nextSeq reserves a collective sequence number. All ranks call collectives
// in the same order (SPMD), so sequence numbers stay aligned.
func (c *Comm) nextSeq() int {
	c.opSeq++
	return c.opSeq
}

// nextAgreeSeq reserves an agreement sequence number. Agreement keeps a
// counter of its own because it must work even when ranks disagree on how
// many data collectives started (an operation interrupted by a failure
// consumes a sequence number at some ranks but not others). Recovery call
// sequences, by contrast, are aligned across survivors, so this counter
// stays in lockstep. It travels whole in every agreement message.
func (c *Comm) nextAgreeSeq() int {
	c.agreeSeq++
	return c.agreeSeq
}

// deriveID computes the context id of the next communicator derived from
// this one. Every surviving member performs the same sequence of
// derivations, so they compute identical ids without extra communication.
func (c *Comm) deriveID() uint64 {
	c.derivedSeq++
	id := c.id*1_000_003 + uint64(c.derivedSeq)
	id = (id % 0x7fffffff) + 2 // stay in 31 bits, clear of WorldID
	return id
}

// Subset derives a communicator over a subset of this one's members,
// given in parent rank order, without any communication: membership is
// assumed to be common knowledge (e.g. agreed through Shrink). Every
// member of the parent — including those excluded — must call it with the
// same list so derivation counters stay aligned; excluded callers get
// (nil, nil) and should stop using the parent.
func (c *Comm) Subset(keep []ProcID) (*Comm, error) {
	id := c.deriveID()
	member := false
	for _, pr := range keep {
		if pr == c.p.ep.ID() {
			member = true
			break
		}
	}
	if !member {
		return nil, nil
	}
	return newComm(c.p, id, keep)
}

// checkCollective validates that a (non-recovery) collective may start:
// the communicator must not be revoked and must have no known-failed
// member. This realizes ULFM's per-operation error reporting: operations
// posted after a failure is known fail immediately.
func (c *Comm) checkCollective() error {
	if err := c.p.Poll(); err != nil {
		return c.translate(err)
	}
	if c.p.revoked[c.id] {
		return &RevokedError{Comm: c.id}
	}
	for r, pr := range c.procs {
		if c.p.failed[pr] {
			return &ProcFailedError{Comm: c.id, Rank: r, Proc: pr}
		}
	}
	return nil
}

// memberSet returns the proc-set view used by operation scopes. It is
// read-only and shared by every scope on this communicator.
func (c *Comm) memberSet() map[ProcID]bool {
	if c.members == nil {
		c.members = make(map[ProcID]bool, len(c.procs))
		for _, pr := range c.procs {
			c.members[pr] = true
		}
	}
	return c.members
}

// sendRaw transmits payload to a rank with transport-error translation.
func (c *Comm) sendRaw(dst int, tag int, data any, bytes int64) error {
	if dst < 0 || dst >= len(c.procs) {
		return fmt.Errorf("mpi: comm %#x: invalid destination rank %d", c.id, dst)
	}
	err := c.p.ep.Send(c.procs[dst], tag, data, bytes)
	if proc, ok := transport.IsPeerFailed(err); ok {
		c.p.noteFailure(proc)
	}
	return c.translate(err)
}

// recvRaw receives a message from a rank (or AnyRank) with the given tag.
// scope controls which failures abort the wait.
func (c *Comm) recvRaw(src int, tag int) (*transport.Message, error) {
	if src < 0 || src >= len(c.procs) {
		return nil, fmt.Errorf("mpi: comm %#x: invalid source rank %d", c.id, src)
	}
	m, err := c.p.ep.Recv(c.procs[src], tag)
	if proc, ok := transport.IsPeerFailed(err); ok {
		c.p.noteFailure(proc)
	}
	return m, c.translate(err)
}
