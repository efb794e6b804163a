// Package chaos is a fault-injecting middleware for the transport layer:
// it wraps any transport.Endpoint (tcpnet or simnet) and executes a
// seeded scenario script — drop, delay, duplicate or reorder the Nth
// message matching a predicate, reset a TCP connection mid-frame,
// partition rank sets, and kill a process at a named protocol point
// (mid-chunk in the pipelined ring, between revoke and agree, during a
// rejoin). The recovery conformance suite in this package drives the
// ULFM pipeline through a table of such scenarios and asserts the
// paper's invariants after every repair.
//
// Determinism: every wrapped endpoint owns a private RNG seeded from
// (scenario seed XOR ProcID) and private per-rule match counters, so the
// fault schedule a process experiences is a pure function of the seed and
// of that process's own message/point sequence — rerunning a scenario
// with the same seed injects the same faults at the same protocol
// moments, independent of goroutine interleaving. (The interleaving of
// the processes against each other remains real concurrency; that is the
// part under test.)
//
// Faults are applied on the SEND side only and never touch control-plane
// traffic (tags at or below transport.CtlTagBase) unless a rule names a
// control tag explicitly, so the failure detector and revocation floods
// stay truthful while the data plane misbehaves. The one exception is
// transport.CtlAgree: agreement messages are protocol traffic that rides
// the control plane only to be consumed at delivery, so AnyTag rules and
// partitions fault them like data.
package chaos

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/transport"
)

// Op is the kind of fault a rule injects.
type Op int

const (
	// OpDrop silently discards the matched message (the sender observes
	// success, the receiver nothing — a lost datagram).
	OpDrop Op = iota
	// OpDup delivers the matched message twice.
	OpDup
	// OpDelay delivers the matched message after Rule.Delay of wall time,
	// off the sender's goroutine.
	OpDelay
	// OpHold holds the matched message back and releases it after the
	// sender's next send (adjacent reorder), or at the sender's next
	// receive if no further send happens first.
	OpHold
	// OpReset cuts the underlying TCP connection after Rule.CutAfter bytes
	// of the matched frame have hit the wire — a mid-frame connection
	// reset. Only meaningful on conns wrapped via Engine.WrapConn.
	OpReset
	// OpKill runs the kill action registered for the process when it hits
	// the protocol point named by Rule.Point.
	OpKill
	// OpPartition activates the partition described by Rule.Groups: sends
	// crossing group boundaries fail with PeerFailedError (the observable
	// result of exhausted dial/write retries). Active from scenario start,
	// or from the moment Rule.Point is hit when a point is named.
	OpPartition
	// OpKillGroup runs the kill actions of EVERY process listed in
	// Rule.Groups when Rule.Point is hit by a matching process — a
	// correlated node-level failure (all ranks of one host die together).
	// Arm with Nth: 1 so one protocol moment fells the whole group once.
	OpKillGroup
	// OpCascade is a staged failure cascade: when Rule.Point is hit,
	// Groups[0] is killed immediately and each further group after
	// another Rule.Delay of wall time, emitting PointCascadeStage before
	// each stage — the repeated-verdict shape the policy engine
	// classifies as a cascade. Arm with Nth: 1.
	OpCascade
	// OpSlow is the slow-node gray failure: every matched send is
	// delayed by Rule.Delay inflated per match — the Nth match waits
	// Delay·(1 + Inflate·(N−1)), capped at Rule.MaxDelay — so a process
	// degrades progressively without ever dying.
	OpSlow
)

func (o Op) String() string {
	switch o {
	case OpDrop:
		return "drop"
	case OpDup:
		return "dup"
	case OpDelay:
		return "delay"
	case OpHold:
		return "hold"
	case OpReset:
		return "reset"
	case OpKill:
		return "kill"
	case OpPartition:
		return "partition"
	case OpKillGroup:
		return "killgroup"
	case OpCascade:
		return "cascade"
	case OpSlow:
		return "slow"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// AnyProc matches any process in a rule predicate.
const AnyProc transport.ProcID = -1

// AnyTag matches any data-plane tag and agreement traffic (other control
// tags are never matched by AnyTag; name one explicitly to fault it).
const AnyTag int = math.MinInt

// dataLike reports whether tag is subject to data-plane faults.
func dataLike(tag int) bool {
	return tag > transport.CtlTagBase || tag == transport.CtlAgree
}

// Rule is one entry of a scenario script: a predicate over messages (or
// protocol points) plus the fault to inject when it matches.
type Rule struct {
	// Name labels the rule in the event journal.
	Name string

	// Proc restricts the rule to messages sent (or points hit) by this
	// process; AnyProc applies it everywhere.
	Proc transport.ProcID
	// To restricts the rule to messages addressed to this process.
	To transport.ProcID
	// Tag restricts the rule to one tag; AnyTag matches every data tag.
	Tag int
	// MinBytes restricts the rule to messages at least this large (per
	// the cost-model byte count; for OpReset, the wire frame size).
	MinBytes int64
	// Point names the protocol point that triggers OpKill or arms a
	// point-gated OpPartition.
	Point string

	// Nth fires the rule on the Nth match only (1-based); 0 fires on
	// every match.
	Nth int
	// Times bounds how often an Nth-armed rule fires after its first
	// firing: 0 means once, k means the Nth, Nth+1, ..., Nth+k matches.
	Times int
	// Prob fires the rule on each match with this probability (per-proc
	// seeded RNG); 0 disables probabilistic matching. Prob and Nth
	// compose: both must pass when both are set.
	Prob float64

	// Op is the fault to inject.
	Op Op
	// Delay is OpDelay's wall-clock deferral, OpSlow's base delay, and
	// OpCascade's inter-stage interval.
	Delay time.Duration
	// Groups are OpPartition's rank sets (a send whose endpoints fall in
	// different groups fails; processes in no group are unaffected),
	// OpKillGroup's correlated kill set, and OpCascade's ordered stages.
	Groups [][]transport.ProcID
	// CutAfter is OpReset's byte offset into the matched frame at which
	// the connection is cut (0 cuts before any byte is written).
	CutAfter int
	// Inflate grows OpSlow's delay per match: the Nth matched send waits
	// Delay·(1 + Inflate·(N−1)). Zero keeps the delay flat.
	Inflate float64
	// MaxDelay caps OpSlow's inflated delay (0 = uncapped).
	MaxDelay time.Duration

	// Disabled rules are skipped until Engine.Enable activates them,
	// letting a test arm a fault at a specific phase of a scenario.
	Disabled bool
}

// DataRule returns a rule template matching every data message everywhere
// — callers narrow it down by assigning fields.
func DataRule(name string, op Op) Rule {
	return Rule{Name: name, Proc: AnyProc, To: AnyProc, Tag: AnyTag, Op: op}
}

// Scenario is a seeded, ordered fault script.
type Scenario struct {
	Name  string
	Seed  int64
	Rules []Rule
}

// Event is one journal entry: a fault that actually fired.
type Event struct {
	Rule  string
	Op    Op
	Proc  transport.ProcID
	To    transport.ProcID
	Tag   int
	Point string
	Seq   int // per-process match ordinal that fired the rule
}

func (ev Event) String() string {
	if ev.Point != "" {
		return fmt.Sprintf("%s: %s proc=%d at %q (match %d)", ev.Rule, ev.Op, ev.Proc, ev.Point, ev.Seq)
	}
	return fmt.Sprintf("%s: %s proc=%d->%d tag=%#x (match %d)", ev.Rule, ev.Op, ev.Proc, ev.To, ev.Tag, ev.Seq)
}

// heldMsg is a send captured by OpHold awaiting release.
type heldMsg struct {
	dst   transport.ProcID
	tag   int
	data  any
	bytes int64
}

// procState is the per-wrapped-process fault state. Guarded by Engine.mu;
// the RNG and counters belong to this process alone, which is what makes
// the schedule deterministic per (seed, process).
type procState struct {
	rng     *rand.Rand
	matches map[int]int // rule index -> matches seen so far
	held    []heldMsg
}

// Engine executes one scenario across every endpoint wrapped with it. An
// engine is safe for concurrent use by all the processes of an in-process
// world (and by the delayed-delivery goroutines it spawns).
type Engine struct {
	mu     sync.Mutex
	sc     Scenario
	procs  map[transport.ProcID]*procState
	parts  []int // indices of currently active OpPartition rules
	kills  map[transport.ProcID]func()
	events []Event
	wg     sync.WaitGroup

	prevHook  transport.PointHook
	installed bool
}

// New builds an engine for the scenario.
func New(sc Scenario) *Engine {
	e := &Engine{
		sc:    sc,
		procs: make(map[transport.ProcID]*procState),
		kills: make(map[transport.ProcID]func()),
	}
	for i, r := range sc.Rules {
		if r.Op == OpPartition && r.Point == "" && !r.Disabled {
			e.parts = append(e.parts, i)
		}
	}
	return e
}

// Scenario returns the script the engine is executing.
func (e *Engine) Scenario() Scenario { return e.sc }

// AddRule appends a rule after construction (used by tests that only know
// process identities once a world has gathered). It returns the engine
// for chaining.
func (e *Engine) AddRule(r Rule) *Engine {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.sc.Rules = append(e.sc.Rules, r)
	if r.Op == OpPartition && r.Point == "" && !r.Disabled {
		e.parts = append(e.parts, len(e.sc.Rules)-1)
	}
	return e
}

// Enable activates every disabled rule with the given name; partitions
// armed this way take effect immediately.
func (e *Engine) Enable(name string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := range e.sc.Rules {
		r := &e.sc.Rules[i]
		if r.Name != name || !r.Disabled {
			continue
		}
		r.Disabled = false
		if r.Op == OpPartition && r.Point == "" {
			e.parts = append(e.parts, i)
		}
	}
}

// Disable deactivates every rule with the given name (including active
// partitions — the partition heals).
func (e *Engine) Disable(name string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := range e.sc.Rules {
		if e.sc.Rules[i].Name != name {
			continue
		}
		e.sc.Rules[i].Disabled = true
		for j, pi := range e.parts {
			if pi == i {
				e.parts = append(e.parts[:j], e.parts[j+1:]...)
				break
			}
		}
	}
}

// OnKill registers the action OpKill runs when proc hits its named point
// (typically: abandon the rendezvous client and close the endpoint).
func (e *Engine) OnKill(proc transport.ProcID, f func()) {
	e.mu.Lock()
	e.kills[proc] = f
	e.mu.Unlock()
}

// Install routes transport protocol points into this engine (saving any
// previously installed hook); Uninstall restores it. Scenarios that use
// OpKill or point-gated partitions must install the engine.
func (e *Engine) Install() {
	e.mu.Lock()
	e.installed = true
	e.mu.Unlock()
	transport.SetPointHook(e.hit)
}

// Uninstall removes the engine's protocol-point hook.
func (e *Engine) Uninstall() {
	e.mu.Lock()
	installed := e.installed
	e.installed = false
	e.mu.Unlock()
	if installed {
		transport.SetPointHook(nil)
	}
}

// Quiesce blocks until every delayed delivery the engine spawned has
// completed — call it before leak checks.
func (e *Engine) Quiesce() { e.wg.Wait() }

// Events returns the journal of faults that fired, in firing order.
func (e *Engine) Events() []Event {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]Event(nil), e.events...)
}

// StrandsData reports whether a fault has fired that legitimately leaves
// unmatched data messages in somebody's mailbox: a duplicate (its second
// copy), a drop, a kill or a partition (the aborted collective's frames,
// sent to a receiver that gave up first). Mailbox-flatness checks hold a
// scenario to an empty mailbox only while this is false; a process a test
// kills by hand is the test's to account for.
func (e *Engine) StrandsData() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, ev := range e.events {
		switch ev.Op {
		case OpDup, OpDrop, OpKill, OpKillGroup, OpCascade, OpPartition:
			return true
		}
	}
	return false
}

// String renders the scenario header and fired-event journal — the
// reproduction recipe a failing test prints.
func (e *Engine) String() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := fmt.Sprintf("chaos scenario %q seed=%d: %d events", e.sc.Name, e.sc.Seed, len(e.events))
	for _, ev := range e.events {
		s += "\n  " + ev.String()
	}
	return s
}

// stateFor lazily builds proc's fault state (seeded RNG + counters).
func (e *Engine) stateFor(proc transport.ProcID) *procState {
	st := e.procs[proc]
	if st == nil {
		st = &procState{
			rng:     rand.New(rand.NewSource(e.sc.Seed ^ int64((uint64(proc)+1)*0x9e3779b97f4a7c15))),
			matches: make(map[int]int),
		}
		e.procs[proc] = st
	}
	return st
}

// ruleMatches evaluates the static predicate of rule r against a send.
func ruleMatches(r *Rule, proc, dst transport.ProcID, tag int, bytes int64) bool {
	if r.Disabled || r.Point != "" || r.Op == OpKill || r.Op == OpKillGroup ||
		r.Op == OpCascade || r.Op == OpPartition || r.Op == OpReset {
		return false
	}
	if r.Proc != AnyProc && r.Proc != proc {
		return false
	}
	if r.To != AnyProc && r.To != dst {
		return false
	}
	if r.Tag == AnyTag {
		if !dataLike(tag) {
			return false
		}
	} else if r.Tag != tag {
		return false
	}
	return bytes >= r.MinBytes
}

// fireCounted applies the Nth/Times/Prob gates for rule index i at proc
// state st, bumping the match counter, and reports whether the rule fires
// together with the ordinal of the match.
func (e *Engine) fireCounted(i int, r *Rule, st *procState) (bool, int) {
	st.matches[i]++
	n := st.matches[i]
	if r.Nth > 0 && (n < r.Nth || n > r.Nth+r.Times) {
		return false, n
	}
	if r.Prob > 0 && st.rng.Float64() >= r.Prob {
		return false, n
	}
	return true, n
}

// verdict is the engine's decision about one send.
type verdict struct {
	drop bool
	dup  bool
	// delay defers delivery on a detached goroutine (OpDelay): the send
	// returns immediately and per-tag FIFO is NOT preserved — a
	// reorder-class fault.
	delay time.Duration
	// slow stalls the sender inline (OpSlow): a slow node's messages
	// arrive late but in order, exactly the gray-failure shape.
	slow        time.Duration
	hold        bool
	partitioned bool
}

// onSend consults the script for one outbound message and returns the
// verdict plus any held message that must be released after this send.
// canHold is false for a send issued from inside the sender's own receive
// (see Endpoint.receiving): OpHold rules pass it by.
func (e *Engine) onSend(proc, dst transport.ProcID, tag int, bytes int64, canHold bool) (verdict, []heldMsg) {
	e.mu.Lock()
	defer e.mu.Unlock()
	var v verdict
	st := e.stateFor(proc)

	if dataLike(tag) && e.crossesPartitionLocked(proc, dst) {
		v.partitioned = true
		e.events = append(e.events, Event{Rule: "partition", Op: OpPartition, Proc: proc, To: dst, Tag: tag})
		return v, e.takeHeldLocked(st)
	}

	for i := range e.sc.Rules {
		r := &e.sc.Rules[i]
		if !ruleMatches(r, proc, dst, tag, bytes) || (r.Op == OpHold && !canHold) {
			continue
		}
		fire, n := e.fireCounted(i, r, st)
		if !fire {
			continue
		}
		e.events = append(e.events, Event{Rule: r.Name, Op: r.Op, Proc: proc, To: dst, Tag: tag, Seq: n})
		switch r.Op {
		case OpDrop:
			v.drop = true
		case OpDup:
			v.dup = true
		case OpDelay:
			v.delay = r.Delay
		case OpSlow:
			d := r.Delay
			if r.Inflate > 0 && n > 1 {
				d = time.Duration(float64(r.Delay) * (1 + r.Inflate*float64(n-1)))
			}
			if r.MaxDelay > 0 && d > r.MaxDelay {
				d = r.MaxDelay
			}
			if d > v.slow {
				v.slow = d
			}
		case OpHold:
			v.hold = true
		}
	}
	if v.hold {
		return v, nil // the message itself is captured; held ones stay held
	}
	return v, e.takeHeldLocked(st)
}

// holdMessage captures a send for later release.
func (e *Engine) holdMessage(proc transport.ProcID, m heldMsg) {
	e.mu.Lock()
	e.stateFor(proc).held = append(e.stateFor(proc).held, m)
	e.mu.Unlock()
}

// takeHeld removes and returns proc's held messages (release points:
// after the next send, or on entering a receive).
func (e *Engine) takeHeld(proc transport.ProcID) []heldMsg {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.takeHeldLocked(e.stateFor(proc))
}

func (e *Engine) takeHeldLocked(st *procState) []heldMsg {
	out := st.held
	st.held = nil
	return out
}

// crossesPartitionLocked reports whether (from -> to) crosses any active
// partition boundary.
func (e *Engine) crossesPartitionLocked(from, to transport.ProcID) bool {
	for _, pi := range e.parts {
		groups := e.sc.Rules[pi].Groups
		gf, gt := -1, -1
		for gi, g := range groups {
			for _, p := range g {
				if p == from {
					gf = gi
				}
				if p == to {
					gt = gi
				}
			}
		}
		if gf >= 0 && gt >= 0 && gf != gt {
			return true
		}
	}
	return false
}

// hit is the transport protocol-point hook: it fires OpKill actions
// (single, correlated group, or staged cascade) and arms point-gated
// partitions. Kill actions run after the lock is released — a cascade's
// stage hook re-enters this function.
func (e *Engine) hit(proc transport.ProcID, point string) {
	var kills []func()
	e.mu.Lock()
	st := e.stateFor(proc)
	for i := range e.sc.Rules {
		r := &e.sc.Rules[i]
		if r.Disabled || r.Point != point {
			continue
		}
		if r.Proc != AnyProc && r.Proc != proc {
			continue
		}
		fire, n := e.fireCounted(i, r, st)
		if !fire {
			continue
		}
		e.events = append(e.events, Event{Rule: r.Name, Op: r.Op, Proc: proc, Point: point, Seq: n})
		switch r.Op {
		case OpKill:
			if f := e.kills[proc]; f != nil {
				kills = append(kills, f)
			}
		case OpKillGroup:
			for _, g := range r.Groups {
				for _, p := range g {
					if f := e.kills[p]; f != nil {
						kills = append(kills, f)
					}
				}
			}
		case OpCascade:
			stages := make([][]transport.ProcID, len(r.Groups))
			for si, g := range r.Groups {
				stages[si] = append([]transport.ProcID(nil), g...)
			}
			e.wg.Add(1)
			go e.runCascade(r.Name, stages, r.Delay)
		case OpPartition:
			r.Disabled = false
			e.parts = append(e.parts, i)
		}
	}
	e.mu.Unlock()
	for _, f := range kills {
		f()
	}
}

// runCascade fells the cascade's stages in order: the first immediately,
// each further stage after another inter-stage delay, announcing every
// stage at PointCascadeStage (through which point-gated rules — or the
// policy conformance harness — can observe the cascade's progress).
func (e *Engine) runCascade(rule string, stages [][]transport.ProcID, delay time.Duration) {
	defer e.wg.Done()
	for si, stage := range stages {
		if si > 0 {
			time.Sleep(delay)
		}
		if len(stage) == 0 {
			continue
		}
		transport.Hit(stage[0], transport.PointCascadeStage)
		var kills []func()
		e.mu.Lock()
		for _, p := range stage {
			if f := e.kills[p]; f != nil {
				kills = append(kills, f)
			}
		}
		e.events = append(e.events, Event{Rule: rule, Op: OpCascade, Proc: stage[0],
			Point: transport.PointCascadeStage, Seq: si + 1})
		e.mu.Unlock()
		for _, f := range kills {
			f()
		}
	}
}

// onWrite consults OpReset rules for one wire write by proc's dialed
// connections. It returns (cut, keep) where cut >= 0 means: write only
// the first cut bytes, then sever the connection.
func (e *Engine) onWrite(proc transport.ProcID, size int) (cut int, fire bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.stateFor(proc)
	for i := range e.sc.Rules {
		r := &e.sc.Rules[i]
		if r.Disabled || r.Op != OpReset {
			continue
		}
		if r.Proc != AnyProc && r.Proc != proc {
			continue
		}
		if int64(size) < r.MinBytes {
			continue
		}
		ok, n := e.fireCounted(i, r, st)
		if !ok {
			continue
		}
		e.events = append(e.events, Event{Rule: r.Name, Op: OpReset, Proc: proc, Seq: n})
		c := r.CutAfter
		if c > size {
			c = size / 2
		}
		return c, true
	}
	return 0, false
}

// SortedProcs is a small helper for invariant checks: a sorted copy.
func SortedProcs(ids []transport.ProcID) []transport.ProcID {
	out := append([]transport.ProcID(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
