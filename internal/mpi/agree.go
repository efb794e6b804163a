package mpi

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/transport"
)

// This file is the engine behind Agree and Shrink: one tree-shaped,
// early-returning agreement (ERA, Herault et al., SC'15 — the algorithm
// behind MPIX_Comm_agree).
//
// The tree. Ranks form a fixed-fanout tree (parent of r is (r-1)/fanout)
// that every member routes around the ranks it knows dead: a member's
// parent is its closest ancestor not known dead, and the lowest rank not
// known dead is the root, which also adopts every member the dead ranks
// above it orphaned. Contributions — flags (AND), the unacknowledged bit
// (OR) and failure knowledge (union) — reduce up the tree, the root
// decides, the decision travels down, and a member returns the moment it
// has forwarded the decision to its children: 2(n-1) messages per
// failure-free agreement, at most fanout+1 sent by any member.
//
// Re-routing. All three reductions are idempotent, so a contribution may
// be sent again, to somebody else, whenever the sender's view of the tree
// changes; a member that gains children asks them (a query) and every
// message carries the sender's failure knowledge, so views converge along
// the tree without waiting for the detector. A contribution counts only
// in the round it names — the round is the root's rank — so a member that
// contributes toward a replacement root vouches that it knew every earlier
// root dead and was still undecided.
//
// The retained decision. What keeps a root that dies mid-broadcast from
// stranding the rest is not a re-flood but memory: a member keeps its last
// decision per communicator and answers any later contribution or query
// for that (comm, seq) with it. A replacement root therefore learns the
// decision from the first member that has it, and decides afresh only
// when every member it can reach is still undecided. For that to be
// uniform, a member that has vouched "undecided" past a dead sender must
// never afterwards adopt that sender's in-flight decision: a decision is
// refused when its sender was already known dead at this member's last
// contribution, and contributions and queries from the known dead are
// dropped outright — the ULFM rule that a failed process's messages are
// discarded.
//
// Delivery. Agreement messages ride transport.CtlAgree and are consumed by
// Proc.handleCtl from inside whatever Recv or PollCtl runs next, keyed by
// the (comm, seq) they carry: fed to the agreement in progress, answered
// from the retained decision, set aside if the local rank has not entered
// that agreement yet, dropped otherwise. None stays in a mailbox.
//
// An agreement may also carry a reduction (AllreduceAgreed, agreed.go):
// contributions then hold partial reductions and a successful decision
// holds the result, so the retained decision, a reply to a latecomer and
// Leave hand over the result along with the verdict.

// agreeFanout is the tree's arity. 4 makes a world of 4 a one-level tree
// and a world of 128 four levels deep. Chosen by BenchmarkAgree's modelled
// critical path (model-us/op at worlds 4/16/64): fanout 2 reads 17/35/53,
// 3 reads 10/30/40, 4 reads 10/22/33, 8 reads 10/29/30, 16 reads 10/22/46
// — depth costs a latency per level, width a send overhead per child, and
// 4 is best or within a tenth of it at every size. Wall time on a 2-core
// machine cannot tell them apart: it tracks the 2(n-1) messages.
const agreeFanout = 4

// Agreement message kinds.
const (
	agreeUp    = iota // a contribution, toward the root
	agreeDown         // the decision: down the tree, or in answer to a latecomer
	agreeQuery        // "I wait on you now": contribute, or answer with the decision
	agreeKinds
	// agreeReply is not a wire kind (a reply is an agreeDown) but a metric
	// label: a decision sent outside the tree, to a latecomer or on leaving.
	agreeReply = agreeKinds
)

// agreeMsg is one agreement message. On the wire it is a flat []int64 —
// kind, comm, seq, round, flags, unacked, elem, count, then the payload
// words, then the failed processes — on the raw codec, like every
// control message.
type agreeMsg struct {
	kind  int
	comm  uint64
	seq   uint64
	round int // the root's rank in the sender's view
	flags uint32
	// unacked is set when a contributor knows of a member failure it has
	// not acknowledged. It is ORed up the tree and travels inside the
	// decision, so the resulting ProcFailedError is raised at every member
	// or at none: deciding it locally would let a late failure notice split
	// the membership — members that had acked return success while the
	// rest launch a repair nobody else will join.
	unacked bool
	// The payload of an agreement that carries a reduction (agreed.go): on
	// an up the sender's partial reduction, on a successful decision the
	// result. count elements of raw-codec type tag elem, packed
	// little-endian into words; elem 0 and no words everywhere else.
	elem   int
	count  int
	data   []int64
	failed []ProcID // up, query: the sender's knowledge; down: the agreed set
}

const agreeHeaderLen = 8

// encode returns the message's wire form. The payload words are a copy
// of data; with data nil they are left zero, for the caller to fill.
func (m *agreeMsg) encode() []int64 {
	words := packedWords(m.elem, m.count)
	w := make([]int64, agreeHeaderLen+words, agreeHeaderLen+words+len(m.failed))
	w[0], w[1], w[2], w[3], w[4] = int64(m.kind), int64(m.comm), int64(m.seq), int64(m.round), int64(m.flags)
	if m.unacked {
		w[5] = 1
	}
	w[6], w[7] = int64(m.elem), int64(m.count)
	copy(w[agreeHeaderLen:], m.data)
	for _, pr := range m.failed {
		w = append(w, int64(pr))
	}
	return w
}

// succeeded reports whether a decision says the operation it seals
// completed everywhere: every contributor agreed and nobody knew of a
// member failure. Only such a decision carries a reduction's result.
func (m *agreeMsg) succeeded() bool { return m.flags == 1 && len(m.failed) == 0 }

// decodeAgreeMsg validates a payload off the wire. Ranks are not checked
// here — the round is only ever compared, and failed processes are looked
// up in the communicator they claim to belong to.
func decodeAgreeMsg(w []int64) (agreeMsg, error) {
	switch {
	case len(w) < agreeHeaderLen:
		return agreeMsg{}, fmt.Errorf("mpi: agreement message of %d words", len(w))
	case w[0] < 0 || w[0] >= agreeKinds:
		return agreeMsg{}, fmt.Errorf("mpi: agreement message kind %d", w[0])
	case w[1] <= 0 || w[2] <= 0:
		return agreeMsg{}, fmt.Errorf("mpi: agreement message for comm %d seq %d", w[1], w[2])
	case w[3] < 0 || w[3] > math.MaxInt32:
		return agreeMsg{}, fmt.Errorf("mpi: agreement message round %d", w[3])
	case w[4] < 0 || w[4] > math.MaxUint32:
		return agreeMsg{}, fmt.Errorf("mpi: agreement message flags %#x", w[4])
	case w[5] != 0 && w[5] != 1:
		return agreeMsg{}, fmt.Errorf("mpi: agreement message unacked %d", w[5])
	case w[6] < 0 || w[6] > math.MaxUint8 || (w[6] != 0 && transport.RawElemBytes(byte(w[6])) == 0):
		return agreeMsg{}, fmt.Errorf("mpi: agreement payload element tag %d", w[6])
	case w[6] == 0 && w[7] != 0:
		return agreeMsg{}, fmt.Errorf("mpi: agreement payload of %d untyped elements", w[7])
	case w[6] != 0 && w[0] == agreeQuery:
		return agreeMsg{}, fmt.Errorf("mpi: agreement query with a payload")
	case w[7] < 0 || w[7] > int64(len(w)-agreeHeaderLen)*8:
		return agreeMsg{}, fmt.Errorf("mpi: agreement payload of %d elements in a %d-word body", w[7], len(w)-agreeHeaderLen)
	}
	m := agreeMsg{
		kind: int(w[0]), comm: uint64(w[1]), seq: uint64(w[2]), round: int(w[3]),
		flags: uint32(w[4]), unacked: w[5] == 1, elem: int(w[6]), count: int(w[7]),
	}
	body := w[agreeHeaderLen:]
	words := packedWords(m.elem, m.count)
	if words > len(body) {
		return agreeMsg{}, fmt.Errorf("mpi: agreement payload of %d words in a %d-word body", words, len(body))
	}
	if words > 0 {
		m.data, body = body[:words:words], body[words:]
	}
	for _, pr := range body {
		if pr < 0 || pr > math.MaxInt32 {
			return agreeMsg{}, fmt.Errorf("mpi: agreement message names process %d", pr)
		}
		m.failed = append(m.failed, ProcID(pr))
	}
	return m, nil
}

// errAgreeWake is what the control handler returns after feeding a message
// to the agreement in progress: it ends the Recv the agreement blocks in,
// so the loop re-examines its state.
var errAgreeWake = errors.New("mpi: agreement progress")

// earlyAgree is a contribution or query for an agreement the local rank
// has not entered yet (a child runs ahead of its parent by at most one).
type earlyAgree struct {
	from ProcID
	at   float64 // arrival time, charged to the clock when the message is used
	msg  agreeMsg
}

// agreement is the state of the one agreement a rank is inside.
type agreement struct {
	c   *Comm
	seq uint64

	flags   uint32 // AND of the own and every counted contribution
	unacked bool   // OR of the counted contributions' unacked bits

	// The tree as this rank's failure knowledge shapes it.
	gen      int   // Proc.failGen the plan below was made under; -1 before the first
	round    int   // rank of the root
	parent   int   // rank contributions go to; -1 at the root
	children []int // ranks whose contributions this rank waits for

	got   []int // per rank: 1 + round of its last counted contribution
	asked []int // per rank: 1 + round of the last query sent to it

	sent    int // 1 + round of the own last contribution; 0 before the first
	sentTo  int // rank it went to
	sentGen int // Proc.failGen it was sent under

	dec     *agreeMsg // the decision, once made here or received
	decFrom int       // rank it came from; the own rank when made here

	// wards are ranks this rank holds dead that wrote to it all the same —
	// a suspicion (a send that ran out of retries, a partition) is not
	// always a death. Nothing they say counts, but they are owed the
	// decision, or they would wait on this rank for ever.
	wards []int

	// red is the reduction the agreement carries (agreed.go), nil for a
	// plain one; pay is, per rank, the payload of its counted contribution
	// in the current round.
	red agreeCarry
	pay [][]int64
}

// agreeFull is the engine shared by Agree and Shrink. It returns the
// agreed flags, the agreed set of failed member processes, and the agreed
// unacknowledged-failure bit (see Agree).
func (c *Comm) agreeFull(flags uint32) (uint32, []ProcID, bool, error) {
	dec, err := c.agreeOn(flags, nil)
	if err != nil {
		return 0, nil, false, err
	}
	return dec.flags, dec.failed, dec.unacked, nil
}

// agreeOn runs one agreement, carrying red's reduction unless red is nil,
// and returns the decision. The decision is retained, so it is read-only.
func (c *Comm) agreeOn(flags uint32, red agreeCarry) (*agreeMsg, error) {
	p := c.p
	_ = p.Poll()
	seq := c.nextAgreeSeq()
	n := c.Size()
	if n == 1 {
		return &agreeMsg{kind: agreeDown, comm: c.id, seq: uint64(seq), flags: flags,
			unacked: c.hasUnackedMembers(), failed: c.failedMembers()}, nil
	}
	defer obsAgreeSeconds.ObserveSince(time.Now())

	marks := make([]int, 2*n)
	a := &agreement{c: c, seq: uint64(seq), flags: flags, gen: -1, got: marks[:n], asked: marks[n:], red: red}
	if red != nil {
		a.pay = make([][]int64, n)
	}
	p.begin(&opScope{comm: c, members: c.memberSet(), abortOnRevoke: false})
	p.agree = a
	defer func() {
		p.agree = nil
		p.end()
	}()
	p.takeEarly(a)

	for a.dec == nil {
		if a.gen != p.failGen {
			if err := a.plan(); err != nil {
				return nil, err
			}
			continue
		}
		if a.ready() && (a.sent != a.round+1 || a.sentTo != a.parent) {
			if a.parent < 0 {
				a.decide()
				break
			}
			sent, err := a.send(a.parent, agreeUp)
			if err != nil {
				return nil, err
			}
			if !sent {
				continue // the parent turned out dead: plan again
			}
			a.sent, a.sentTo, a.sentGen = a.round+1, a.parent, p.failGen
			transport.Hit(p.ep.ID(), transport.PointAgreeContrib)
		}
		if err := a.wait(); err != nil {
			return nil, err
		}
	}
	if err := a.forward(); err != nil {
		return nil, err
	}
	p.agreed[c.id] = a.dec // replaces the communicator's previous one
	return a.dec, nil
}

// plan rebuilds the tree from the current failure knowledge and asks the
// children that may not know they are this rank's: on the first plan those
// adopted from a dead rank, on a re-plan every child still waited on. One
// that has decided and moved on answers with the decision; one merely
// behind learns from the query what this rank knows.
func (a *agreement) plan() error {
	c := a.c
	replan := a.gen >= 0
	a.gen = c.p.failGen
	a.round = c.agreeRoot()
	a.parent = c.agreeParent(a.round)
	a.children = c.agreeChildren(a.children[:0], a.round)
	slices.Sort(a.children) // a reduction sums its children in rank order
	for _, ch := range a.children {
		adopted := (ch-1)/agreeFanout != c.rank
		if a.got[ch] != a.round+1 && (replan || adopted) {
			if err := a.ask(ch); err != nil {
				return err
			}
		}
	}
	return nil
}

// ask sends rank r a query, once per round.
func (a *agreement) ask(r int) error {
	if a.asked[r] == a.round+1 {
		return nil
	}
	a.asked[r] = a.round + 1
	_, err := a.send(r, agreeQuery)
	return err
}

func (a *agreement) ready() bool {
	for _, ch := range a.children {
		if a.got[ch] != a.round+1 {
			return false
		}
	}
	return true
}

// send transmits this rank's current contribution (or a query, which is
// the same knowledge without the claim to be counted) to rank r.
func (a *agreement) send(r int, kind int) (sent bool, err error) {
	c := a.c
	m := agreeMsg{
		kind: kind, comm: c.id, seq: a.seq, round: a.round,
		flags: a.flags, unacked: a.unacked || c.hasUnackedMembers(), failed: c.failedMembers(),
	}
	if kind != agreeUp || a.red == nil {
		return c.p.sendAgree(c.procs[r], m.encode(), kind)
	}
	m.elem, m.count = a.red.shape()
	w := m.encode() // the partial reduction is packed straight into the wire form
	a.reduce(w[agreeHeaderLen : agreeHeaderLen+packedWords(m.elem, m.count)])
	return c.p.sendAgree(c.procs[r], w, kind)
}

// reduce writes into dst, which is zero, this rank's partial reduction:
// its own data combined with each child's payload, in rank order. It is
// only called once every child has contributed in the current round.
func (a *agreement) reduce(dst []int64) {
	ins := make([][]int64, len(a.children))
	for i, ch := range a.children {
		ins[i] = a.pay[ch]
	}
	a.red.reduce(dst, ins)
}

// decide is the root's step: every member it can reach has contributed in
// this round, undecided.
func (a *agreement) decide() {
	c := a.c
	failed := c.failedMembers()
	sortProcs(failed)
	a.dec = &agreeMsg{
		kind: agreeDown, comm: c.id, seq: a.seq, round: a.round,
		flags: a.flags, unacked: a.unacked || c.hasUnackedMembers(), failed: failed,
	}
	if a.red != nil && a.dec.succeeded() {
		a.dec.elem, a.dec.count = a.red.shape()
		a.dec.data = make([]int64, packedWords(a.dec.elem, a.dec.count))
		a.reduce(a.dec.data)
	}
	a.decFrom = c.rank
}

// wait blocks until the control handler has fed this agreement a message
// or recorded a member's death, then drains whatever else is already
// queued, so the next step acts on everything that has arrived — above
// all a decision that sits in the mailbox behind its sender's death
// notice is adopted before this rank vouches past the sender.
func (a *agreement) wait() error {
	ep := a.c.p.ep
	_, err := ep.Recv(transport.AnySource, a.c.agreeWaitTag())
	for err != nil {
		var pf *ProcFailedError
		if !errors.Is(err, errAgreeWake) && !errors.As(err, &pf) {
			return a.c.translate(err)
		}
		err = ep.PollCtl()
	}
	return nil
}

// deliver feeds one message for this agreement into its state. It runs in
// the control handler, on the rank's own goroutine.
func (a *agreement) deliver(from ProcID, m agreeMsg) {
	c, p := a.c, a.c.p
	r := c.rankOfProc(from)
	if r < 0 || r == c.rank {
		return
	}
	if m.kind == agreeDown {
		vouchedPast := a.sent > 0 && p.failed[from] && p.learned[from] <= a.sentGen
		if a.dec == nil && !vouchedPast {
			dec := m
			a.dec, a.decFrom = &dec, r
		}
		return
	}
	if p.failed[from] {
		if !slices.Contains(a.wards, r) {
			a.wards = append(a.wards, r)
		}
		return
	}
	for _, pr := range m.failed {
		if pr != p.ep.ID() && c.rankOfProc(pr) >= 0 {
			p.noteFailure(pr)
		}
	}
	if a.dec != nil {
		p.reply(from, a.dec)
		return
	}
	if m.kind != agreeUp {
		return
	}
	if root := c.agreeRoot(); m.round == root {
		a.flags &= m.flags
		a.unacked = a.unacked || m.unacked
		a.got[r] = root + 1
		if a.red != nil {
			// The latest counted contribution replaces the sender's earlier
			// one: a duplicate or a re-send is never summed twice. One that
			// cannot be summed fails the operation.
			a.pay[r] = m.data
			if elem, count := a.red.shape(); m.elem != elem || m.count != count {
				a.pay[r], a.flags = nil, 0
			}
		}
	} else if a.gen == p.failGen {
		// The sender is a root behind; tell it why. (When the knowledge
		// just merged changed the plan, the re-plan asks.)
		_ = a.ask(r)
	}
}

// forward sends the decision to this rank's children as it sees them now,
// re-routing around any that turn out dead, and to its parent when the
// decision did not come from there.
func (a *agreement) forward() error {
	c, p := a.c, a.c.p
	me := p.ep.ID()
	var words []int64 // the decision's wire form, laid out on the first send
	root := c.agreeRoot()
	transport.Hit(me, transport.PointAgreeDecide)
	todo := c.agreeChildren(nil, root)
	if parent := c.agreeParent(root); parent >= 0 && parent != a.decFrom {
		todo = append(todo, parent)
	}
	for len(todo) > 0 {
		r := todo[len(todo)-1]
		todo = todo[:len(todo)-1]
		if r == a.decFrom {
			continue
		}
		if words == nil {
			words = a.dec.encode()
		}
		sent, err := p.sendAgree(c.procs[r], words, agreeDown)
		if err != nil {
			return err
		}
		if !sent {
			todo = c.agreeKids(todo, r) // r is dead: its children are this rank's now
			continue
		}
		transport.Hit(me, transport.PointAgreeDecide)
	}
	for _, r := range a.wards {
		p.reply(c.procs[r], a.dec)
	}
	return nil
}

// --- the tree ---------------------------------------------------------

// alive reports whether rank r is not known dead. The caller's own rank
// always is, whatever an agreed failed set said about it.
func (c *Comm) alive(r int) bool { return r == c.rank || !c.p.failed[c.procs[r]] }

// agreeRoot is the lowest rank not known dead.
func (c *Comm) agreeRoot() int {
	r := 0
	for !c.alive(r) {
		r++
	}
	return r
}

// agreeParent is the caller's closest ancestor not known dead, the root
// when there is none, and -1 at the root.
func (c *Comm) agreeParent(root int) int {
	if c.rank == root {
		return -1
	}
	for r := c.rank; r > 0; {
		r = (r - 1) / agreeFanout
		if c.alive(r) {
			return r
		}
	}
	return root
}

// agreeChildren appends the ranks that take the caller for their parent:
// the live frontier below it, and at a root other than rank 0 the live
// frontier of the whole tree — everything the dead ranks above orphaned.
func (c *Comm) agreeChildren(dst []int, root int) []int {
	dst = c.agreeKids(dst, c.rank)
	if c.rank == root && root != 0 {
		dst = c.agreeFrontier(dst, 0)
	}
	return dst
}

// agreeKids appends the live frontier below rank r.
func (c *Comm) agreeKids(dst []int, r int) []int {
	for k := r*agreeFanout + 1; k <= r*agreeFanout+agreeFanout && k < len(c.procs); k++ {
		dst = c.agreeFrontier(dst, k)
	}
	return dst
}

// agreeFrontier appends r if it is alive (and not the caller), else the
// live frontier below it.
func (c *Comm) agreeFrontier(dst []int, r int) []int {
	if !c.alive(r) {
		return c.agreeKids(dst, r)
	}
	if r != c.rank {
		dst = append(dst, r)
	}
	return dst
}

// --- the Proc's side: delivery, retained decisions, leaving ------------

// onAgree is the control handler's agreement case: every agreement message
// is consumed here, whatever the rank is doing.
func (p *Proc) onAgree(tm *transport.Message) error {
	words, ok := tm.Data.([]int64)
	if !ok {
		return nil
	}
	m, err := decodeAgreeMsg(words)
	if err != nil {
		return nil // a malformed message must not abort the operation in flight
	}
	if a := p.agree; a != nil && a.c.id == m.comm && a.seq == m.seq {
		p.ep.VClock().AdvanceTo(tm.ArriveAt)
		a.deliver(tm.From, m)
		return errAgreeWake
	}
	if m.kind == agreeDown {
		return nil // a duplicate, or a straggler of an agreement already left
	}
	if dec := p.agreed[m.comm]; dec != nil && m.seq <= dec.seq {
		if m.seq == dec.seq {
			p.reply(tm.From, dec)
		}
		return nil
	}
	p.early = append(p.early, earlyAgree{from: tm.From, at: tm.ArriveAt, msg: m})
	return nil
}

// takeEarly feeds a the messages that arrived before this rank entered it.
func (p *Proc) takeEarly(a *agreement) {
	keep := p.early[:0]
	for _, e := range p.early {
		switch {
		case e.msg.comm != a.c.id || e.msg.seq > a.seq:
			keep = append(keep, e)
		case e.msg.seq == a.seq:
			p.ep.VClock().AdvanceTo(e.at)
			a.deliver(e.from, e.msg)
		}
	}
	for i := len(keep); i < len(p.early); i++ {
		p.early[i] = earlyAgree{}
	}
	p.early = keep
}

// reply answers a latecomer with a decision.
func (p *Proc) reply(to ProcID, dec *agreeMsg) {
	_, _ = p.sendAgree(to, dec.encode(), agreeReply) // the latecomer asks again, of whoever it turns to
}

// sendAgree sends one encoded agreement message, counted under the given
// metric kind. A dead destination is recorded and reported as not sent;
// any other failure (the local process being dead, above all) is an error.
func (p *Proc) sendAgree(to ProcID, words []int64, kind int) (sent bool, err error) {
	err = p.ep.Send(to, transport.CtlAgree, words, int64(8*len(words)))
	if proc, ok := failedProcOf(err); ok {
		p.noteFailure(proc)
		return false, nil
	}
	if err != nil {
		return false, err
	}
	obsAgreeMsgs[kind].Inc()
	return true, nil
}

// AgreeBacklog reports how many agreement messages this process has set
// aside for agreements it has not entered yet. Between operations of a
// quiet world it is zero; like QueueLen, it is for tests and diagnostics.
func (p *Proc) AgreeBacklog() int { return len(p.early) }

// Leave hands every decision this process retains to each member it does
// not know dead. A process that exits while others go on must call it
// before closing its endpoint: once it is gone nobody can ask it, and a
// member re-routed to it by a failure would wait for ever. It is the
// protocol's only flood, paid once per departure instead of once per
// agreement.
func (p *Proc) Leave() {
	for id, dec := range p.agreed {
		for _, pr := range p.comms[id] {
			if pr != p.ep.ID() && !p.failed[pr] {
				p.reply(pr, dec)
			}
		}
	}
}
