package gossip

import (
	"container/heap"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/transport"
)

// SimConfig tunes the deterministic in-memory gossip world.
type SimConfig struct {
	// Seed drives packet loss, latency jitter, and every node's private
	// RNG. Two runs with the same seed and the same call sequence are
	// bit-identical.
	Seed int64
	// Latency is the one-way delivery latency. Default 1ms.
	Latency time.Duration
	// Jitter adds uniform random extra latency in [0, Jitter). Default
	// Latency/2.
	Jitter time.Duration
	// DropProb drops each datagram independently with this probability.
	DropProb float64
	// Node configures every member (per-node seeds are derived from
	// Seed). Node.Seed is ignored.
	Node Config
	// TickEvery is the node tick granularity. Default ProbeTimeout/2.
	TickEvery time.Duration
}

func (c SimConfig) withDefaults() SimConfig {
	if c.Latency <= 0 {
		c.Latency = time.Millisecond
	}
	if c.Jitter <= 0 {
		c.Jitter = c.Latency / 2
	}
	c.Node = c.Node.withDefaults()
	if c.TickEvery <= 0 {
		c.TickEvery = c.Node.ProbeTimeout / 2
	}
	if c.TickEvery <= 0 {
		c.TickEvery = time.Millisecond
	}
	return c
}

// SimEvent is one membership transition as observed by one member.
type SimEvent struct {
	Viewer transport.ProcID
	Event
}

// simEvent is one scheduled occurrence on the virtual timeline.
type simEvent struct {
	at   float64
	seq  int // tiebreak: schedule order
	proc transport.ProcID
	pkt  *Packet // nil = node tick
}

type simHeap []*simEvent

func (h simHeap) Len() int { return len(h) }
func (h simHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h simHeap) Swap(i, j int)          { h[i], h[j] = h[j], h[i] }
func (h *simHeap) Push(x any)            { *h = append(*h, x.(*simEvent)) }
func (h *simHeap) Pop() any              { old := *h; n := len(old); ev := old[n-1]; *h = old[:n-1]; return ev }
func simAddr(id transport.ProcID) string { return fmt.Sprintf("sim://%d", id) }

// simMember is one simulated process.
type simMember struct {
	node *Node
	live bool
}

// Sim drives a world of gossip Nodes on a virtual clock over a seeded
// lossy switchboard. Everything is single-threaded and event-driven, so
// convergence at world 128 takes milliseconds of real time and the
// control-plane benchmarks are noise-free.
type Sim struct {
	cfg     SimConfig
	now     float64
	seq     int
	events  simHeap
	members map[transport.ProcID]*simMember
	rng     *rand.Rand
	parts   [][]transport.ProcID
	journal []SimEvent
	// OnEvent, if set, observes every member transition as it happens
	// (before it is appended to the journal).
	OnEvent func(viewer transport.ProcID, ev Event)
	latency float64
	jitter  float64
	tick    float64
}

// NewSim builds an empty world.
func NewSim(cfg SimConfig) *Sim {
	cfg = cfg.withDefaults()
	return &Sim{
		cfg:     cfg,
		members: make(map[transport.ProcID]*simMember),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		latency: cfg.Latency.Seconds(),
		jitter:  cfg.Jitter.Seconds(),
		tick:    cfg.TickEvery.Seconds(),
	}
}

// Now returns the current virtual time in seconds.
func (s *Sim) Now() float64 { return s.now }

// Journal returns every transition observed so far, in occurrence order.
func (s *Sim) Journal() []SimEvent { return s.journal }

// Node returns a member's state machine (for view inspection in tests).
func (s *Sim) Node(id transport.ProcID) *Node { return s.members[id].node }

// Live reports whether the simulated process is still running.
func (s *Sim) Live(id transport.ProcID) bool {
	m, ok := s.members[id]
	return ok && m.live
}

// Boot creates procs 0..world-1, every member bootstrapped with the full
// address map (the rendezvous welcome equivalent), with first ticks
// staggered across one protocol period.
func (s *Sim) Boot(world int) {
	peers := make(map[transport.ProcID]string, world)
	for i := 0; i < world; i++ {
		peers[transport.ProcID(i)] = simAddr(transport.ProcID(i))
	}
	for i := 0; i < world; i++ {
		s.add(transport.ProcID(i), peers)
	}
}

// Join adds a newcomer that knows the full current membership (its
// welcome) but is known to nobody: the world learns it epidemically from
// the Alive announcement it piggybacks on its own probes.
func (s *Sim) Join(id transport.ProcID) {
	peers := make(map[transport.ProcID]string, len(s.members)+1)
	for pid, m := range s.members {
		if m.live {
			peers[pid] = simAddr(pid)
		}
	}
	peers[id] = simAddr(id)
	s.add(id, peers)
}

func (s *Sim) add(id transport.ProcID, peers map[transport.ProcID]string) {
	cfg := s.cfg.Node
	cfg.Seed = s.cfg.Seed
	n := NewNode(id, simAddr(id), cfg)
	n.Bootstrap(peers, s.now)
	s.members[id] = &simMember{node: n, live: true}
	s.schedule(s.now+s.rng.Float64()*s.cfg.Node.Period.Seconds(), id, nil)
}

// Kill silences a process abruptly: its ticks stop and datagrams to it
// vanish — the kill -9 of the virtual world.
func (s *Sim) Kill(id transport.ProcID) {
	if m, ok := s.members[id]; ok {
		m.live = false
	}
}

// Partition splits the world into isolated groups; datagrams crossing a
// group boundary are dropped. Heal removes the split.
func (s *Sim) Partition(groups ...[]transport.ProcID) { s.parts = groups }

// Heal removes any active partition.
func (s *Sim) Heal() { s.parts = nil }

func (s *Sim) partitioned(a, b transport.ProcID) bool {
	if len(s.parts) == 0 {
		return false
	}
	ga, gb := -1, -1
	for gi, g := range s.parts {
		for _, p := range g {
			if p == a {
				ga = gi
			}
			if p == b {
				gb = gi
			}
		}
	}
	return ga >= 0 && gb >= 0 && ga != gb
}

func (s *Sim) schedule(at float64, proc transport.ProcID, pkt *Packet) {
	s.seq++
	heap.Push(&s.events, &simEvent{at: at, seq: s.seq, proc: proc, pkt: pkt})
}

// send routes envelopes through the lossy switchboard.
func (s *Sim) send(from transport.ProcID, envs []Envelope) {
	for _, env := range envs {
		if s.partitioned(from, env.To) {
			continue
		}
		if s.cfg.DropProb > 0 && s.rng.Float64() < s.cfg.DropProb {
			continue
		}
		// Round-trip through the wire codec so the sim exercises the
		// same encode/decode path production uses.
		blob, err := Encode(env.Pkt)
		if err != nil {
			continue
		}
		pkt, err := Decode(blob)
		if err != nil {
			continue
		}
		s.schedule(s.now+s.latency+s.rng.Float64()*s.jitter, env.To, pkt)
	}
}

// Step processes the next scheduled occurrence. It returns false when
// the timeline is empty.
func (s *Sim) Step() bool {
	if s.events.Len() == 0 {
		return false
	}
	ev := heap.Pop(&s.events).(*simEvent)
	if ev.at > s.now {
		s.now = ev.at
	}
	m, ok := s.members[ev.proc]
	if !ok || !m.live {
		return true
	}
	if ev.pkt == nil {
		s.send(ev.proc, m.node.Tick(s.now))
		s.schedule(s.now+s.tick, ev.proc, nil)
	} else {
		s.send(ev.proc, m.node.HandlePacket(ev.pkt, s.now))
	}
	for _, e := range m.node.Events() {
		if s.OnEvent != nil {
			s.OnEvent(ev.proc, e)
		}
		s.journal = append(s.journal, SimEvent{Viewer: ev.proc, Event: e})
	}
	return true
}

// Run advances virtual time until the given timestamp.
func (s *Sim) Run(until float64) {
	for s.events.Len() > 0 && s.events[0].at <= until {
		s.Step()
	}
	if s.now < until {
		s.now = until
	}
}

// RunUntil advances until cond holds (checked after every step) or max
// virtual seconds elapse, and reports whether cond held.
func (s *Sim) RunUntil(cond func() bool, max float64) bool {
	deadline := s.now + max
	for !cond() {
		if s.events.Len() == 0 || s.events[0].at > deadline {
			return cond()
		}
		s.Step()
	}
	return true
}

// AllBelieve reports whether every live member's view holds proc in the
// given state.
func (s *Sim) AllBelieve(proc transport.ProcID, st State) bool {
	for id, m := range s.members {
		if !m.live || id == proc {
			continue
		}
		got, known := m.node.StateOf(proc)
		if !known || got != st {
			return false
		}
	}
	return true
}

// AllKnow reports whether every live member (other than proc itself) has
// proc in its membership table at all.
func (s *Sim) AllKnow(proc transport.ProcID) bool {
	for id, m := range s.members {
		if !m.live || id == proc {
			continue
		}
		if _, known := m.node.StateOf(proc); !known {
			return false
		}
	}
	return true
}
