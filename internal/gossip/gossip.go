// Package gossip is a SWIM-style decentralized failure detector: every
// member probes one random peer per protocol period, falls back to k
// indirect ping-req probes when the direct probe times out, moves silent
// targets through alive → suspect → dead, and piggybacks membership
// updates epidemically on the probe traffic itself. Incarnation numbers
// let a falsely suspected member refute the accusation before the
// declaration becomes irreversible.
//
// Liveness load is spread uniformly across the membership (each member
// sends and answers O(1) probes per period regardless of world size), and
// declarations reach every member in O(log n) dissemination rounds
// without a hub on the path. No shipped worker runs it yet: the
// rendezvous hub's heartbeat sweep is the one failure detector, and this
// package is the protocol a hubless control plane would drive over the
// data mesh.
//
// The detector is built sans-IO, so the protocol is one implementation
// whatever carries its packets:
//
//   - Node is the pure state machine: feed it packets and ticks with an
//     explicit clock, collect outbound envelopes and state-transition
//     events. Single-goroutine, deterministic given its seed.
//   - Sim drives a whole world of Nodes on a virtual clock with a seeded
//     lossy switchboard: convergence behavior at world 128 measures in
//     milliseconds of real time and is bit-reproducible, which is what
//     the control-plane benchmarks (BENCH_controlplane.json) and the
//     churn/flapping tests run on.
//
// Determinism note: a Node's probe-target order and indirect-probe
// choices are a pure function of its Config.Seed and its observed
// membership, so a failure schedule replayed against the same seeds
// probes in the same order.
package gossip

import (
	"encoding/json"
	"fmt"

	"repro/internal/transport"
)

// State is a member's position in the failure-detector lifecycle.
type State int

const (
	// Alive: the member answers probes (directly or through relays).
	Alive State = iota
	// Suspect: a probe round (direct + indirect) elapsed without an ack;
	// recoverable by refutation until the suspicion timeout expires.
	Suspect
	// Dead: the suspicion timeout expired, or another member's death
	// declaration arrived. Absorbing: ProcIDs are never reused, so a
	// declared member can never return under the same identity.
	Dead
)

func (s State) String() string {
	switch s {
	case Alive:
		return "alive"
	case Suspect:
		return "suspect"
	case Dead:
		return "dead"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Update is one piece of membership news piggybacked on probe traffic.
// Precedence follows SWIM: for one member, higher incarnation wins;
// at equal incarnation Suspect overrides Alive; Dead overrides
// everything at any incarnation.
type Update struct {
	Proc transport.ProcID `json:"p"`
	// Addr is the member's gossip address, carried so that joins
	// disseminate epidemically: a member learned through gossip is
	// probeable without consulting the hub.
	Addr string `json:"a,omitempty"`
	// Inc is the member's incarnation number. Only the member itself
	// creates new incarnations (when refuting a suspicion).
	Inc uint32 `json:"i"`
	// State is the claimed lifecycle state.
	State State `json:"s"`
	// Hops counts dissemination rounds: 0 at the originator, +1 each
	// time a member re-gossips news it learned from a peer.
	Hops uint8 `json:"h,omitempty"`
}

// Kind discriminates gossip packets.
type Kind int

const (
	// KindPing is a direct probe: answer with an Ack carrying Seq.
	KindPing Kind = iota
	// KindAck answers a ping. Target names the member whose liveness is
	// being confirmed, so relayed acks stay truthful about their sender.
	KindAck
	// KindPingReq asks the receiver to probe Target on the sender's
	// behalf and relay the ack back (the SWIM indirect probe).
	KindPingReq
)

func (k Kind) String() string {
	switch k {
	case KindPing:
		return "ping"
	case KindAck:
		return "ack"
	case KindPingReq:
		return "ping-req"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Packet is one gossip datagram. Every packet, whatever its kind, is a
// dissemination vehicle: Updates carries the sender's highest-priority
// pending membership news.
type Packet struct {
	Kind Kind             `json:"k"`
	From transport.ProcID `json:"f"`
	// Seq matches acks to pending probes. For a relayed probe the relay
	// uses its own sequence space and rewrites Seq when forwarding the
	// ack to the origin.
	Seq uint32 `json:"q"`
	// Target is the probed member for KindPingReq and KindAck.
	Target transport.ProcID `json:"t,omitempty"`
	// Updates is the piggybacked membership news (bounded by
	// Config.MaxPiggyback).
	Updates []Update `json:"u,omitempty"`
}

// Encode serializes a packet for the wire. Gossip datagrams are small
// (a handful of updates) and rare (O(1) per member per period), so the
// JSON codec the rendezvous control plane already speaks is fast enough
// and keeps the wire debuggable with tcpdump.
func Encode(p *Packet) ([]byte, error) {
	return json.Marshal(p)
}

// Decode parses a wire datagram.
func Decode(b []byte) (*Packet, error) {
	var p Packet
	if err := json.Unmarshal(b, &p); err != nil {
		return nil, fmt.Errorf("gossip: decode packet: %w", err)
	}
	return &p, nil
}

// Envelope is an outbound packet with its destination, as produced by
// the pure Node for its driver (Sim, or a real network loop) to put on
// the wire.
type Envelope struct {
	To     transport.ProcID
	ToAddr string
	Pkt    *Packet
}

// EventKind classifies a Node state-transition event.
type EventKind int

const (
	// EvJoin: a previously unknown member entered the table alive.
	EvJoin EventKind = iota
	// EvSuspect: a member moved alive → suspect.
	EvSuspect
	// EvAlive: a suspect recovered to alive (refutation applied).
	EvAlive
	// EvDead: a member was declared dead (locally or learned).
	EvDead
	// EvRefute: this node saw itself suspected and bumped its own
	// incarnation to refute.
	EvRefute
	// EvSelfDead: this node learned the world has declared it dead. The
	// declaration is absorbing; the host should exit the world.
	EvSelfDead
)

func (k EventKind) String() string {
	switch k {
	case EvJoin:
		return "join"
	case EvSuspect:
		return "suspect"
	case EvAlive:
		return "alive"
	case EvDead:
		return "dead"
	case EvRefute:
		return "refute"
	case EvSelfDead:
		return "self-dead"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// Event is one membership transition observed by a Node, drained by its
// driver after every Tick/HandlePacket batch.
type Event struct {
	Kind EventKind
	Proc transport.ProcID
	Inc  uint32
	At   float64
	// Origin is true when this node originated the declaration itself
	// (its own probe timeouts / suspicion expiry), false when the news
	// arrived by gossip.
	Origin bool
	// Hops is the dissemination round count for learned news (0 for
	// originated declarations).
	Hops uint8
	// EchoSeconds, on a learned event that echoes a declaration this
	// node originated earlier, is the local-clock delay between
	// originating the news and first hearing it back from the world —
	// a cross-clock-free measure of epidemic round-trip latency. It is
	// negative when no echo measurement applies.
	EchoSeconds float64
}
