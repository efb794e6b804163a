package gossip

import (
	"math/rand"
	"time"

	"repro/internal/transport"
)

// Config tunes one gossip member. Durations are converted to seconds on
// the node's driver-supplied clock (virtual in Sim).
type Config struct {
	// Period is the protocol period: one direct probe of one random
	// member is started every Period. Default 200ms.
	Period time.Duration
	// ProbeTimeout is the wait for a direct ack before falling back to
	// indirect ping-req probes. Default Period/4.
	ProbeTimeout time.Duration
	// SuspicionTimeout is how long a suspect may stay unrefuted before
	// it is declared dead. Default 5x Period — several dissemination
	// rounds for the suspicion to reach the accused and the refutation
	// to travel back.
	SuspicionTimeout time.Duration
	// IndirectK is the ping-req fan-out after a direct probe timeout.
	// Default 3.
	IndirectK int
	// MaxPiggyback bounds membership updates per packet. Default 8.
	MaxPiggyback int
	// RetransmitMult scales the per-update piggyback budget
	// (RetransmitMult * ceil(log2(n+1)) transmissions). Default 3.
	RetransmitMult int
	// Seed makes the node's probe rotation and indirect-probe choices
	// deterministic. Drivers should derive it from (scenario seed, proc).
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Period <= 0 {
		c.Period = 200 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = c.Period / 4
	}
	if c.SuspicionTimeout <= 0 {
		c.SuspicionTimeout = 5 * c.Period
	}
	if c.IndirectK <= 0 {
		c.IndirectK = 3
	}
	if c.MaxPiggyback <= 0 {
		c.MaxPiggyback = 8
	}
	if c.RetransmitMult <= 0 {
		c.RetransmitMult = 3
	}
	return c
}

// probe is the in-flight probe of the current protocol period.
type probe struct {
	target         transport.ProcID
	seq            uint32
	directDeadline float64 // send ping-reqs if no ack by then
	periodDeadline float64 // declare suspect if no ack by then
	indirectSent   bool
}

// relay is a ping this node sent on another member's behalf (ping-req),
// awaiting the target's ack to forward back to the origin.
type relay struct {
	origin    transport.ProcID
	originSeq uint32
	deadline  float64
}

// echoKey identifies a declaration for round-trip echo measurement.
type echoKey struct {
	proc  transport.ProcID
	state State
	inc   uint32
}

// Node is the pure SWIM state machine for one member: no goroutines, no
// clocks, no sockets. The driver feeds it Tick and HandlePacket with a
// monotonically non-decreasing now and sends the returned envelopes;
// Events drains the membership transitions observed since the last call.
type Node struct {
	cfg      Config
	self     transport.ProcID
	selfAddr string
	inc      uint32
	selfDead bool

	period, probeTO, suspicionTO float64

	tbl *table
	rng *rand.Rand

	order    []transport.ProcID // shuffled probe rotation
	orderIdx int

	seq         uint32
	cur         *probe
	relays      map[uint32]relay
	nextProbeAt float64
	started     bool

	pendingEcho map[echoKey]float64
	events      []Event
}

// NewNode builds a member with the given identity and gossip address.
func NewNode(self transport.ProcID, selfAddr string, cfg Config) *Node {
	cfg = cfg.withDefaults()
	return &Node{
		cfg:         cfg,
		self:        self,
		selfAddr:    selfAddr,
		period:      cfg.Period.Seconds(),
		probeTO:     cfg.ProbeTimeout.Seconds(),
		suspicionTO: cfg.SuspicionTimeout.Seconds(),
		tbl:         newTable(self, cfg.RetransmitMult),
		rng:         rand.New(rand.NewSource(cfg.Seed ^ int64((uint64(self)+1)*0x9e3779b97f4a7c15))),
		relays:      make(map[uint32]relay),
		pendingEcho: make(map[echoKey]float64),
	}
}

// Self returns the node's identity.
func (n *Node) Self() transport.ProcID { return n.self }

// Addr returns the node's gossip address.
func (n *Node) Addr() string { return n.selfAddr }

// Incarnation returns the node's current incarnation number.
func (n *Node) Incarnation() uint32 { return n.inc }

// SelfDead reports whether the world has irrevocably declared this node
// dead (seen via gossip about itself).
func (n *Node) SelfDead() bool { return n.selfDead }

// Bootstrap seeds the membership from the rendezvous welcome and
// announces this node so late joiners disseminate epidemically. peers
// maps ProcID to gossip address; the self entry, if present, is ignored.
func (n *Node) Bootstrap(peers map[transport.ProcID]string, now float64) {
	for id, addr := range peers {
		if id == n.self {
			continue
		}
		if _, ok := n.tbl.members[id]; !ok {
			n.tbl.members[id] = &entry{addr: addr, state: Alive, since: now}
		}
	}
	n.tbl.enqueue(Update{Proc: n.self, Addr: n.selfAddr, Inc: n.inc, State: Alive})
	n.reshuffle()
	n.nextProbeAt = now
	n.started = true
}

// AddPeer learns a member out-of-band (a rendezvous join delta).
func (n *Node) AddPeer(id transport.ProcID, addr string, now float64) {
	if id == n.self {
		return
	}
	n.applyUpdate(Update{Proc: id, Addr: addr, State: Alive}, now, -1)
}

// Remove marks a member dead without gossiping a declaration — the
// bookkeeping for an authoritative out-of-band removal (a clean leave
// published by the rendezvous service). Probing it stops immediately.
func (n *Node) Remove(id transport.ProcID) {
	if e, ok := n.tbl.members[id]; ok {
		e.state = Dead
	}
}

// Alive returns the members this node currently believes alive or
// suspect (i.e. not declared), excluding itself, sorted.
func (n *Node) Alive() []transport.ProcID { return n.tbl.alive() }

// StateOf reports this node's view of a member.
func (n *Node) StateOf(id transport.ProcID) (State, bool) {
	e, ok := n.tbl.members[id]
	if !ok {
		return Alive, false
	}
	return e.state, true
}

// Events drains the transitions recorded since the last call.
func (n *Node) Events() []Event {
	out := n.events
	n.events = nil
	return out
}

// emit records a transition event.
func (n *Node) emit(ev Event) {
	if ev.EchoSeconds == 0 {
		ev.EchoSeconds = -1
	}
	n.events = append(n.events, ev)
}

// Tick advances the protocol clock: probe timeouts fan out indirect
// probes, period expiry originates suspicions, suspicion expiry
// originates death declarations, and period boundaries start the next
// probe. Call it at a granularity finer than ProbeTimeout.
func (n *Node) Tick(now float64) []Envelope {
	if !n.started || n.selfDead {
		return nil
	}
	var out []Envelope

	// Expire stale relays (the origin's own period deadline has long
	// passed; the forwarded ack would be ignored anyway).
	for seq, rl := range n.relays {
		if now >= rl.deadline {
			delete(n.relays, seq)
		}
	}

	if n.cur != nil {
		if !n.cur.indirectSent && now >= n.cur.directDeadline {
			n.cur.indirectSent = true
			out = append(out, n.sendIndirect(n.cur)...)
		}
		if now >= n.cur.periodDeadline {
			n.suspectLocked(n.cur.target, now)
			n.cur = nil
		}
	}

	// Suspicion expiry: every member independently times suspicions out,
	// so a dead member is declared even if the original accuser has
	// itself died. Expired suspects are processed in ProcID order to
	// keep the node a pure function of its inputs and seed.
	var expired []transport.ProcID
	for id, e := range n.tbl.members {
		if e.state == Suspect && now-e.since >= n.suspicionTO {
			expired = append(expired, id)
		}
	}
	sortProcs(expired)
	for _, id := range expired {
		e := n.tbl.members[id]
		e.state = Dead
		e.since = now
		up := Update{Proc: id, Inc: e.inc, State: Dead}
		n.tbl.enqueue(up)
		n.noteEcho(up, now)
		n.emit(Event{Kind: EvDead, Proc: id, Inc: e.inc, At: now, Origin: true})
	}

	if now >= n.nextProbeAt {
		n.nextProbeAt = now + n.period
		if target, ok := n.nextTarget(); ok {
			n.seq++
			n.cur = &probe{
				target:         target,
				seq:            n.seq,
				directDeadline: now + n.probeTO,
				periodDeadline: now + n.period,
			}
			out = append(out, n.envelopeTo(target, &Packet{Kind: KindPing, From: n.self, Seq: n.seq})...)
		}
	}
	return out
}

// suspectLocked originates a suspicion of target at its known
// incarnation.
func (n *Node) suspectLocked(target transport.ProcID, now float64) {
	e, ok := n.tbl.members[target]
	if !ok || e.state != Alive {
		return
	}
	e.state = Suspect
	e.since = now
	up := Update{Proc: target, Inc: e.inc, State: Suspect}
	n.tbl.enqueue(up)
	n.noteEcho(up, now)
	n.emit(Event{Kind: EvSuspect, Proc: target, Inc: e.inc, At: now, Origin: true})
}

// noteEcho records an originated declaration so that hearing it back
// from the world later yields a round-trip dissemination sample.
func (n *Node) noteEcho(up Update, now float64) {
	k := echoKey{proc: up.Proc, state: up.State, inc: up.Inc}
	if _, ok := n.pendingEcho[k]; !ok {
		n.pendingEcho[k] = now
	}
}

// sendIndirect fans out ping-reqs for the stalled probe to IndirectK
// random members (excluding self and the target).
func (n *Node) sendIndirect(p *probe) []Envelope {
	candidates := make([]transport.ProcID, 0, len(n.tbl.members))
	for id, e := range n.tbl.members {
		if id != p.target && e.state != Dead {
			candidates = append(candidates, id)
		}
	}
	// Sort before the seeded shuffle: map order must not leak into the
	// fan-out choice or determinism per (seed, proc) is lost.
	sortProcs(candidates)
	n.rng.Shuffle(len(candidates), func(i, j int) {
		candidates[i], candidates[j] = candidates[j], candidates[i]
	})
	k := n.cfg.IndirectK
	if k > len(candidates) {
		k = len(candidates)
	}
	var out []Envelope
	for _, id := range candidates[:k] {
		out = append(out, n.envelopeTo(id, &Packet{
			Kind: KindPingReq, From: n.self, Seq: p.seq, Target: p.target,
		})...)
	}
	return out
}

// nextTarget draws the next probe target from the shuffled rotation,
// reshuffling when exhausted — SWIM's round-robin randomization, which
// bounds worst-case detection time (every live member is probed at
// least once per n periods).
func (n *Node) nextTarget() (transport.ProcID, bool) {
	for tries := 0; tries < 2; tries++ {
		for n.orderIdx < len(n.order) {
			id := n.order[n.orderIdx]
			n.orderIdx++
			if e, ok := n.tbl.members[id]; ok && e.state != Dead {
				return id, true
			}
		}
		n.reshuffle()
		if len(n.order) == 0 {
			return 0, false
		}
	}
	return 0, false
}

func (n *Node) reshuffle() {
	n.order = n.order[:0]
	for id, e := range n.tbl.members {
		if id != n.self && e.state != Dead {
			n.order = append(n.order, id)
		}
	}
	// Map iteration is already random, but not seeded: sort first so the
	// shuffle is a pure function of the node's own RNG.
	sortProcs(n.order)
	n.rng.Shuffle(len(n.order), func(i, j int) {
		n.order[i], n.order[j] = n.order[j], n.order[i]
	})
	n.orderIdx = 0
}

// HandlePacket processes one inbound datagram: applies piggybacked
// membership news, then answers pings, relays ping-reqs, and matches
// acks against pending probes and relays.
func (n *Node) HandlePacket(pkt *Packet, now float64) []Envelope {
	if n.selfDead {
		return nil
	}
	for _, up := range pkt.Updates {
		n.applyUpdate(up, now, pkt.From)
	}
	switch pkt.Kind {
	case KindPing:
		return n.envelopeTo(pkt.From, &Packet{Kind: KindAck, From: n.self, Seq: pkt.Seq, Target: n.self})
	case KindPingReq:
		e, ok := n.tbl.members[pkt.Target]
		if !ok || e.state == Dead {
			return nil
		}
		n.seq++
		n.relays[n.seq] = relay{origin: pkt.From, originSeq: pkt.Seq, deadline: now + 2*n.probeTO}
		return n.envelopeTo(pkt.Target, &Packet{Kind: KindPing, From: n.self, Seq: n.seq, Target: pkt.Target})
	case KindAck:
		if rl, ok := n.relays[pkt.Seq]; ok {
			delete(n.relays, pkt.Seq)
			return n.envelopeTo(rl.origin, &Packet{Kind: KindAck, From: n.self, Seq: rl.originSeq, Target: pkt.Target})
		}
		if n.cur != nil && pkt.Seq == n.cur.seq && pkt.Target == n.cur.target {
			n.cur = nil // probe confirmed
		}
	}
	return nil
}

// applyUpdate folds one piece of membership news into the table. from
// is the delivering peer (-1 for out-of-band news from the rendezvous
// hub, which is not an echo).
func (n *Node) applyUpdate(up Update, now float64, from transport.ProcID) {
	if up.Proc == n.self {
		n.applySelf(up, now)
		return
	}
	e := n.tbl.members[up.Proc]
	if !applies(e, up) {
		return
	}
	echo := -1.0
	if from >= 0 {
		k := echoKey{proc: up.Proc, state: up.State, inc: up.Inc}
		if t0, ok := n.pendingEcho[k]; ok {
			echo = now - t0
			delete(n.pendingEcho, k)
		}
	}
	hops := up.Hops
	if hops < 255 {
		hops++
	}
	if e == nil {
		e = &entry{addr: up.Addr, inc: up.Inc, state: up.State, since: now}
		n.tbl.members[up.Proc] = e
		// New members join the rotation at a random position.
		if up.State != Dead {
			pos := 0
			if len(n.order) > 0 {
				pos = n.rng.Intn(len(n.order) + 1)
			}
			n.order = append(n.order, 0)
			copy(n.order[pos+1:], n.order[pos:])
			n.order[pos] = up.Proc
		}
		kind := EvJoin
		switch up.State {
		case Suspect:
			kind = EvSuspect
		case Dead:
			kind = EvDead
		}
		n.emit(Event{Kind: kind, Proc: up.Proc, Inc: up.Inc, At: now, Hops: up.Hops, EchoSeconds: echo})
	} else {
		prev := e.state
		e.inc = up.Inc
		if up.Addr != "" {
			e.addr = up.Addr
		}
		if up.State != prev {
			e.state = up.State
			e.since = now
			kind := EvAlive
			switch up.State {
			case Suspect:
				kind = EvSuspect
			case Dead:
				kind = EvDead
			}
			n.emit(Event{Kind: kind, Proc: up.Proc, Inc: up.Inc, At: now, Hops: up.Hops, EchoSeconds: echo})
		}
		// A refreshed suspicion (higher incarnation) restarts its clock.
		if up.State == Suspect && prev == Suspect {
			e.since = now
		}
	}
	// Abandon a probe of a member that fresher news just declared: the
	// ack will never come and the suspicion would be redundant.
	if n.cur != nil && n.cur.target == up.Proc && up.State == Dead {
		n.cur = nil
	}
	n.tbl.enqueue(Update{Proc: up.Proc, Addr: e.addr, Inc: up.Inc, State: up.State, Hops: hops})
}

// applySelf handles news about this node itself: suspicion is refuted by
// bumping the incarnation; a death declaration is absorbing.
func (n *Node) applySelf(up Update, now float64) {
	switch up.State {
	case Suspect:
		if up.Inc >= n.inc {
			n.inc = up.Inc + 1
			n.tbl.enqueue(Update{Proc: n.self, Addr: n.selfAddr, Inc: n.inc, State: Alive})
			n.emit(Event{Kind: EvRefute, Proc: n.self, Inc: n.inc, At: now})
		}
	case Dead:
		if !n.selfDead {
			n.selfDead = true
			n.emit(Event{Kind: EvSelfDead, Proc: n.self, Inc: up.Inc, At: now})
		}
	}
}

// envelopeTo wraps a packet for a member, attaching piggybacked updates,
// or nothing when the member's address is unknown.
func (n *Node) envelopeTo(id transport.ProcID, pkt *Packet) []Envelope {
	e, ok := n.tbl.members[id]
	if !ok || e.addr == "" {
		return nil
	}
	pkt.Updates = n.tbl.take(n.cfg.MaxPiggyback)
	return []Envelope{{To: id, ToAddr: e.addr, Pkt: pkt}}
}

func sortProcs(ids []transport.ProcID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}
