// Package policy is the adaptive recovery-policy engine: a sans-IO,
// deterministic decision core (in the gossip.Node / autopilot.Controller
// style) that, on each failure verdict, classifies the failure — single
// process drop, correlated node-level drop, cascade, or slow-node "gray
// failure" — and selects the cheapest recovery strategy among
// process-drop shrink, node-drop shrink, spare swap, and checkpoint
// rollback by comparing predicted recovery cost.
//
// The cost model is Chameleon-style: each strategy is priced as
// (recovery seconds) + (degraded-capacity penalty over a planning
// horizon). Recovery seconds are seeded from static defaults, overridden
// by rigged baselines (tests, conformance scenarios) or by live obs
// readings (recovery-phase means, state-transfer durations, spare-swap
// recovery latency — all via Registry.Value, so the engine registers no
// families it does not own), and finally refined per (class, strategy)
// cell with an EWMA of realized costs. A mispriced constant is corrected
// after a handful of failures.
//
// The engine is wired into the ULFM repair pipeline through the
// ulfm.Advisor interface: rank 0 of the shrunken communicator calls
// Advise, replicates the opaque decision code with a broadcast, and the
// other members apply it symmetrically through Adopt — so the strategy
// (and therefore the membership) can never diverge across ranks. After
// the retried collective succeeds, the deciding rank reports the
// realized recovery cost through Realize, closing the EWMA loop and
// producing the regret metric.
package policy

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Mode is the operator override for strategy selection (-policy flag).
type Mode int

const (
	// ModeAuto selects the predicted-cheapest strategy per failure.
	ModeAuto Mode = iota
	// ModeShrink always shrinks the failed processes out (the paper's
	// baseline forward recovery).
	ModeShrink
	// ModeSwap prefers replacing deaths from the warm spare pool,
	// falling back to shrink when the pool is empty.
	ModeSwap
	// ModeRollback prefers checkpoint rollback, falling back to shrink
	// when no restore point exists.
	ModeRollback
)

func (m Mode) String() string {
	switch m {
	case ModeAuto:
		return "auto"
	case ModeShrink:
		return "shrink"
	case ModeSwap:
		return "swap"
	case ModeRollback:
		return "rollback"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// ParseMode parses a -policy flag value.
func ParseMode(s string) (Mode, error) {
	switch strings.TrimSpace(strings.ToLower(s)) {
	case "", "auto":
		return ModeAuto, nil
	case "shrink":
		return ModeShrink, nil
	case "swap":
		return ModeSwap, nil
	case "rollback":
		return ModeRollback, nil
	}
	return ModeAuto, fmt.Errorf("policy: unknown mode %q (want auto|shrink|swap|rollback)", s)
}

// Class is the engine's failure taxonomy.
type Class int

const (
	// ClassProcDrop: one process failed in isolation.
	ClassProcDrop Class = iota
	// ClassNodeDrop: a correlated drop — multiple processes failed
	// together, or the dead share a physical node.
	ClassNodeDrop
	// ClassCascade: this verdict follows another failure within the
	// cascade window; more are likely coming.
	ClassCascade
	// ClassGray: a slow-node gray failure — nobody died, but a member
	// is inflating every round (detected via ObserveGray).
	ClassGray

	classCount = iota
)

func (c Class) String() string {
	switch c {
	case ClassProcDrop:
		return "proc_drop"
	case ClassNodeDrop:
		return "node_drop"
	case ClassCascade:
		return "cascade"
	case ClassGray:
		return "gray"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// Strategy is one recovery action the engine can select.
type Strategy int

const (
	// StrategyShrinkProc removes only the dead processes (ULFM shrink).
	StrategyShrinkProc Strategy = iota
	// StrategyShrinkNode also evicts the dead processes' node-mates
	// (the node-drop blast radius).
	StrategyShrinkNode
	// StrategySpareSwap shrinks now and restores the world from the
	// warm spare pool at the next boundary (via the autopilot).
	StrategySpareSwap
	// StrategyRollback restores the last checkpoint after the repair
	// (backward recovery; pays restore + recompute, but a cascade is
	// absorbed by a single rollback instead of repeated repairs).
	StrategyRollback

	strategyCount = iota
)

func (s Strategy) String() string {
	switch s {
	case StrategyShrinkProc:
		return "shrink_proc"
	case StrategyShrinkNode:
		return "shrink_node"
	case StrategySpareSwap:
		return "spare_swap"
	case StrategyRollback:
		return "rollback"
	}
	return fmt.Sprintf("strategy(%d)", int(s))
}

// Decision is one policy verdict: the classification, the chosen
// strategy, the predicted cost of every candidate, and the opaque code
// that replicates the verdict to the other members.
type Decision struct {
	Class     Class
	Strategy  Strategy
	Predicted float64              // predicted cost of the chosen strategy (seconds)
	Costs     map[Strategy]float64 // predicted cost of every candidate
	Code      int64                // wire encoding (Adopt decodes)
	Seq       int                  // per-engine decision ordinal
}

// Baselines rigs the recovery-seconds component of each cost term.
// Zero fields fall through to live obs readings, then static defaults;
// conformance scenarios set exactly one side to make a strategy clearly
// cheaper and assert the engine picks it.
type Baselines struct {
	// ShrinkSeconds: the full repair pipeline (revoke+agree+shrink+retry).
	ShrinkSeconds float64
	// NodeExtraSeconds: the additional subset step of a node-level drop.
	NodeExtraSeconds float64
	// XferSeconds: streaming newcomer state to a swapped-in spare.
	XferSeconds float64
	// RestoreSeconds: loading the checkpoint at rollback.
	RestoreSeconds float64
	// RecomputeSeconds: re-executing the work lost since the checkpoint
	// (0 = derive from the checkpoint age as age/2, the expected loss).
	RecomputeSeconds float64
}

// Config parameterizes an Engine. Zero-valued tuning fields take the
// documented defaults.
type Config struct {
	// Mode is the operator override (-policy flag); ModeAuto compares
	// predicted costs.
	Mode Mode
	// NodeOf resolves process placement for node-level classification
	// and the node-drop strategy; nil disables both (every process is
	// its own node, so only simultaneous multi-death reads as
	// correlated).
	NodeOf func(transport.ProcID) (transport.NodeID, bool)
	// Spares reports the warm pool size at decision time; nil or zero
	// removes spare-swap from the candidate set.
	Spares func() int
	// Checkpoint reports whether a restore point exists and its age in
	// seconds; nil removes rollback from the candidate set.
	Checkpoint func() (ageSeconds float64, ok bool)
	// Horizon is the degraded-capacity planning window in seconds: a
	// strategy that leaves the world k short of n is charged k/n of it.
	// Default 60.
	Horizon float64
	// CascadeWindow classifies a verdict arriving within this many
	// seconds of the previous one as a cascade. Default 5.
	CascadeWindow float64
	// GrayLagMin is the per-round lag (seconds) below which a straggler
	// is never evicted. Default 0.25.
	GrayLagMin float64
	// EWMA is the weight of a realized cost against its cell's running
	// estimate. Default 0.3.
	EWMA float64
	// Baselines rigs cost inputs (tests/conformance).
	Baselines Baselines
	// Registry supplies live cost inputs via Value reads (nil =
	// obs.Default()).
	Registry *obs.Registry
	// Trace records "policy" journal events (nil = discard).
	Trace *trace.Recorder
	// Proc stamps trace records and protocol points.
	Proc transport.ProcID
}

// Static cost-model seeds, used when neither a rigged baseline, a live
// obs reading, nor an EWMA cell covers a term. Values match the
// committed control-plane baselines' order of magnitude.
const (
	defaultHorizon       = 60.0
	defaultCascadeWindow = 5.0
	defaultGrayLagMin    = 0.25
	defaultEWMA          = 0.3
	defaultShrinkSec     = 0.5
	defaultNodeExtraSec  = 0.05
	defaultXferSec       = 1.0
	defaultRestoreSec    = 1.0
)

// cell keys the EWMA table of realized recovery costs.
type cell struct {
	class    Class
	strategy Strategy
}

// Engine is the decision core. Safe for concurrent use (a Realize from
// the retry path may race a GrayVerdict probe from a boundary).
type Engine struct {
	cfg Config

	mu       sync.Mutex
	observed map[cell]float64 // EWMA realized recovery seconds
	lastFail float64          // time of the previous failure verdict
	haveFail bool
	burst    int // consecutive verdicts inside the cascade window
	gray     map[transport.ProcID]float64
	pending  map[int64]float64 // code -> predicted cost awaiting Realize
	seq      int

	lastStrategy      Strategy // most recent chosen strategy (GateSwap)
	lastStrategyValid bool
}

// New builds an engine.
func New(cfg Config) *Engine {
	if cfg.Horizon <= 0 {
		cfg.Horizon = defaultHorizon
	}
	if cfg.CascadeWindow <= 0 {
		cfg.CascadeWindow = defaultCascadeWindow
	}
	if cfg.GrayLagMin <= 0 {
		cfg.GrayLagMin = defaultGrayLagMin
	}
	if cfg.EWMA <= 0 || cfg.EWMA > 1 {
		cfg.EWMA = defaultEWMA
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.Default()
	}
	return &Engine{
		cfg:      cfg,
		observed: make(map[cell]float64),
		gray:     make(map[transport.ProcID]float64),
		pending:  make(map[int64]float64),
	}
}

// Mode reports the engine's operating mode.
func (e *Engine) Mode() Mode { return e.cfg.Mode }

// --- decision encoding ------------------------------------------------------

// codeMagic marks a valid decision code; zero is "no decision".
const codeMagic = int64(1) << 16

func encode(c Class, s Strategy) int64 {
	return codeMagic | int64(c)<<8 | int64(s)
}

// DecodeCode reverses the wire encoding; ok is false for codes this
// engine version does not understand (a mixed-version world degrades to
// plain shrink rather than diverging).
func DecodeCode(code int64) (Class, Strategy, bool) {
	if code&codeMagic == 0 {
		return 0, 0, false
	}
	c := Class(code >> 8 & 0xff)
	s := Strategy(code & 0xff)
	if int(c) >= classCount || int(s) >= strategyCount {
		return 0, 0, false
	}
	return c, s, true
}

// --- the ulfm.Advisor triplet ----------------------------------------------

// Advise runs one full decision at the deciding rank: classify the
// failure, price every candidate strategy, pick the cheapest (or the
// mode-forced one), and record the decision in obs, the trace journal,
// and the protocol-point stream. survivors/dead describe the shrunken
// membership and the processes the shrink removed.
func (e *Engine) Advise(now float64, survivors, dead []transport.ProcID) (dropNode, rollback bool, code int64) {
	d := e.Decide(now, survivors, dead)
	return d.Strategy == StrategyShrinkNode, d.Strategy == StrategyRollback, d.Code
}

// Adopt applies a replicated decision code at a non-deciding rank. It
// records nothing (the deciding rank owns the metrics and journal
// record); it only decodes the action so membership stays uniform.
// Unknown codes degrade to plain shrink.
func (e *Engine) Adopt(now float64, survivors, dead []transport.ProcID, code int64) (dropNode, rollback bool) {
	cl, s, ok := DecodeCode(code)
	if !ok {
		return false, false
	}
	e.mu.Lock()
	// Track the failure clock and last strategy on every member, so a
	// later decision (or swap-gate consultation) made from THIS engine
	// after the seat migrates still sees the cascade history.
	e.noteFailureLocked(now)
	e.lastStrategy, e.lastStrategyValid = s, true
	_ = cl
	e.mu.Unlock()
	return s == StrategyShrinkNode, s == StrategyRollback
}

// Realize reports the realized recovery cost (seconds) of the decision
// identified by code, as measured by the caller across repair and
// retry. It folds the observation into the (class, strategy) EWMA cell,
// records realized cost and regret, and emits the closing "policy"
// journal record.
func (e *Engine) Realize(now float64, code int64, realizedSec float64) {
	cl, s, ok := DecodeCode(code)
	if !ok || realizedSec < 0 || math.IsNaN(realizedSec) {
		return
	}
	e.mu.Lock()
	k := cell{cl, s}
	if prev, seen := e.observed[k]; seen {
		e.observed[k] = (1-e.cfg.EWMA)*prev + e.cfg.EWMA*realizedSec
	} else {
		e.observed[k] = realizedSec
	}
	predicted, had := e.pending[code]
	delete(e.pending, code)
	seq := e.seq
	e.mu.Unlock()

	regret := 0.0
	if had {
		if r := realizedSec - predicted; r > 0 {
			regret = r
		}
	}
	obsCostRealized.Observe(realizedSec)
	obsRegret.Observe(regret)
	e.cfg.Trace.PolicyOutcome(now, int(e.cfg.Proc), seq, s.String(), predicted, realizedSec, regret)
	transport.Hit(e.cfg.Proc, transport.PointPolicyRealized)
}

// --- core decision ----------------------------------------------------------

// Decide is the full decision procedure (Advise without the interface
// flattening); exported for the harness and tests.
func (e *Engine) Decide(now float64, survivors, dead []transport.ProcID) Decision {
	e.mu.Lock()
	class := e.classifyLocked(now, dead)
	e.noteFailureLocked(now)
	d := e.chooseLocked(class, survivors, dead)
	e.seq++
	d.Seq = e.seq
	e.pending[d.Code] = d.Predicted
	e.lastStrategy, e.lastStrategyValid = d.Strategy, true
	e.mu.Unlock()

	e.record(now, d)
	return d
}

// classifyLocked maps a death set onto the failure taxonomy.
func (e *Engine) classifyLocked(now float64, dead []transport.ProcID) Class {
	if len(dead) > 1 {
		if e.cfg.NodeOf == nil {
			// No placement oracle: simultaneous multi-death is the
			// correlated signature.
			return ClassNodeDrop
		}
		perNode := map[transport.NodeID]int{}
		for _, p := range dead {
			if n, ok := e.cfg.NodeOf(p); ok {
				perNode[n]++
			}
		}
		for _, c := range perNode {
			if c > 1 {
				return ClassNodeDrop
			}
		}
	}
	if e.haveFail && now-e.lastFail <= e.cfg.CascadeWindow {
		return ClassCascade
	}
	return ClassProcDrop
}

// noteFailureLocked advances the cascade clock.
func (e *Engine) noteFailureLocked(now float64) {
	if e.haveFail && now-e.lastFail <= e.cfg.CascadeWindow {
		e.burst++
	} else {
		e.burst = 0
	}
	e.lastFail, e.haveFail = now, true
}

// chooseLocked prices the candidate set and picks the winner.
func (e *Engine) chooseLocked(class Class, survivors, dead []transport.ProcID) Decision {
	world := len(survivors) + len(dead)
	if world <= 0 {
		world = 1
	}
	var ckAge float64
	ckOK := false
	if e.cfg.Checkpoint != nil {
		ckAge, ckOK = e.cfg.Checkpoint()
	}
	spares := 0
	if e.cfg.Spares != nil {
		spares = e.cfg.Spares()
	}

	candidates := []Strategy{StrategyShrinkProc}
	if e.cfg.NodeOf != nil && len(e.nodeMates(survivors, dead)) > 0 {
		candidates = append(candidates, StrategyShrinkNode)
	}
	if spares > 0 {
		candidates = append(candidates, StrategySpareSwap)
	}
	if ckOK {
		candidates = append(candidates, StrategyRollback)
	}

	costs := make(map[Strategy]float64, len(candidates))
	for _, s := range candidates {
		costs[s] = e.predictLocked(class, s, survivors, dead, world, ckAge)
	}

	chosen := StrategyShrinkProc
	switch e.cfg.Mode {
	case ModeShrink:
		chosen = StrategyShrinkProc
	case ModeSwap:
		if _, ok := costs[StrategySpareSwap]; ok {
			chosen = StrategySpareSwap
		}
	case ModeRollback:
		if _, ok := costs[StrategyRollback]; ok {
			chosen = StrategyRollback
		}
	default:
		best := math.Inf(1)
		// Iterate in strategy-enum order so ties break identically at
		// every rank and across runs.
		for s := Strategy(0); int(s) < strategyCount; s++ {
			if c, ok := costs[s]; ok && c < best {
				chosen, best = s, c
			}
		}
	}
	return Decision{
		Class:     class,
		Strategy:  chosen,
		Predicted: costs[chosen],
		Costs:     costs,
		Code:      encode(class, chosen),
	}
}

// nodeMates returns the surviving node-mates of the dead set — the
// processes a node-drop would additionally evict.
func (e *Engine) nodeMates(survivors, dead []transport.ProcID) []transport.ProcID {
	deadNodes := map[transport.NodeID]bool{}
	for _, p := range dead {
		if n, ok := e.cfg.NodeOf(p); ok {
			deadNodes[n] = true
		}
	}
	var mates []transport.ProcID
	for _, p := range survivors {
		if n, ok := e.cfg.NodeOf(p); ok && deadNodes[n] {
			mates = append(mates, p)
		}
	}
	return mates
}

// predictLocked prices one strategy: recovery seconds (EWMA cell →
// rigged baseline → live obs → static default) plus the
// degraded-capacity penalty over the horizon. Cascades multiply the
// forward-recovery term by the burst length (each further failure pays
// the pipeline again); rollback pays it once, which is exactly why it
// can win there.
func (e *Engine) predictLocked(class Class, s Strategy, survivors, dead []transport.ProcID, world int, ckAge float64) float64 {
	rec := e.recoverySecondsLocked(class, s, ckAge)

	short := len(dead) // members the strategy leaves the world short of
	if class == ClassNodeDrop && e.cfg.NodeOf != nil {
		if mates := len(e.nodeMates(survivors, dead)); mates > 0 {
			// The dead nodes' surviving ranks are doomed either way:
			// every strategy pays their capacity, and a strategy that
			// keeps them in the communicator pays an expected second
			// repair when they fail. Evicting the whole node up front
			// (StrategyShrinkNode) trades that repair for the cheaper
			// subset step — which is exactly when node-drop wins.
			short += mates
			if s != StrategyShrinkNode {
				rec *= 2
			}
		}
	}
	if class == ClassCascade && s != StrategyRollback {
		// Forward recovery pays the pipeline again for each further
		// failure of the burst; one rollback absorbs them all.
		rec *= float64(2 + e.burst)
	}
	if s == StrategySpareSwap {
		short = 0 // the pool restores the world at the next boundary
	}
	penalty := float64(short) / float64(world) * e.cfg.Horizon
	return rec + penalty
}

// recoverySecondsLocked resolves the recovery-time component of one
// strategy, consulting in order: the EWMA cell of realized costs, the
// rigged baseline, the live obs reading, the static seed.
func (e *Engine) recoverySecondsLocked(class Class, s Strategy, ckAge float64) float64 {
	if v, ok := e.observed[cell{class, s}]; ok {
		return v
	}
	b := e.cfg.Baselines
	shrink := pick(b.ShrinkSeconds, e.shrinkMean(), defaultShrinkSec)
	switch s {
	case StrategyShrinkProc:
		return shrink
	case StrategyShrinkNode:
		return shrink + pick(b.NodeExtraSeconds, math.NaN(), defaultNodeExtraSec)
	case StrategySpareSwap:
		return shrink + pick(b.XferSeconds, e.obsMean("autopilot_state_transfer_seconds"), defaultXferSec)
	case StrategyRollback:
		restore := pick(b.RestoreSeconds, math.NaN(), defaultRestoreSec)
		recompute := b.RecomputeSeconds
		if recompute <= 0 {
			recompute = ckAge / 2 // expected lost work since the snapshot
		}
		return shrink + restore + recompute
	}
	return shrink
}

// shrinkMean sums the live recovery-phase means into one pipeline
// estimate (NaN before the first repair).
func (e *Engine) shrinkMean() float64 {
	total := 0.0
	for _, phase := range []string{"revoke", "agree", "shrink", "retry"} {
		v := e.obsMean("ulfm_recovery_phase_seconds", obs.L("phase", phase))
		if math.IsNaN(v) {
			return math.NaN()
		}
		total += v
	}
	return total
}

// obsMean reads one live metric value (histogram mean / counter level),
// NaN when the family, child, or first sample is missing.
func (e *Engine) obsMean(name string, labels ...obs.Label) float64 {
	v, ok := e.cfg.Registry.Value(name, labels...)
	if !ok {
		return math.NaN()
	}
	return v
}

// pick resolves one cost term: rigged baseline if set, live reading if
// sampled, static seed otherwise.
func pick(baseline, live, seed float64) float64 {
	if baseline > 0 {
		return baseline
	}
	if !math.IsNaN(live) && live > 0 {
		return live
	}
	return seed
}

// record publishes one decision to obs, the journal, and the
// protocol-point stream (deciding rank only — Adopt is silent).
func (e *Engine) record(now float64, d Decision) {
	obsDecisions[d.Strategy].Inc()
	obsClasses[d.Class].Inc()
	obsCostPredicted.Observe(d.Predicted)
	costs := make(map[string]float64, len(d.Costs))
	for s, c := range d.Costs {
		costs[s.String()] = c
	}
	e.cfg.Trace.PolicyDecision(now, int(e.cfg.Proc), d.Seq, d.Class.String(), d.Strategy.String(), d.Predicted, costs)
	transport.Hit(e.cfg.Proc, transport.PointPolicyDecide)
}

// --- gray failures ----------------------------------------------------------

// ObserveGray feeds one straggler measurement for proc: the extra
// seconds the member added to a round (or its heartbeat gap over
// baseline). The engine keeps an EWMA per process.
func (e *Engine) ObserveGray(now float64, proc transport.ProcID, lagSec float64) {
	if lagSec < 0 || math.IsNaN(lagSec) {
		return
	}
	e.mu.Lock()
	if prev, ok := e.gray[proc]; ok {
		e.gray[proc] = (1-e.cfg.EWMA)*prev + e.cfg.EWMA*lagSec
	} else {
		e.gray[proc] = lagSec
	}
	e.mu.Unlock()
}

// GrayVerdict asks whether the worst straggler should be evicted: the
// cost of keeping it (its lag charged over the whole horizon — a slow
// member slows every round for everyone) is compared against the
// predicted cost of evicting it. When eviction wins, the decision is
// recorded like any other and the straggler's lag state is consumed;
// the caller performs the eviction (e.g. a clean leave). Deterministic:
// processes are scanned in ID order.
func (e *Engine) GrayVerdict(now float64, world int) (transport.ProcID, Decision, bool) {
	if world <= 1 {
		return 0, Decision{}, false
	}
	e.mu.Lock()
	var procs []transport.ProcID
	for p := range e.gray {
		procs = append(procs, p)
	}
	sort.Slice(procs, func(i, j int) bool { return procs[i] < procs[j] })
	worst, worstLag := transport.ProcID(-1), 0.0
	for _, p := range procs {
		if e.gray[p] > worstLag {
			worst, worstLag = p, e.gray[p]
		}
	}
	if worst < 0 || worstLag < e.cfg.GrayLagMin || e.cfg.Mode == ModeShrink {
		e.mu.Unlock()
		return 0, Decision{}, false
	}
	keep := worstLag * e.cfg.Horizon
	evict := e.predictLocked(ClassGray, StrategyShrinkProc, nil, []transport.ProcID{worst}, world, 0)
	if evict >= keep {
		e.mu.Unlock()
		return 0, Decision{}, false
	}
	delete(e.gray, worst)
	e.seq++
	d := Decision{
		Class:     ClassGray,
		Strategy:  StrategyShrinkProc,
		Predicted: evict,
		Costs:     map[Strategy]float64{StrategyShrinkProc: evict},
		Code:      encode(ClassGray, StrategyShrinkProc),
		Seq:       e.seq,
	}
	e.pending[d.Code] = d.Predicted
	e.mu.Unlock()

	obsGrayEvictions.Inc()
	e.record(now, d)
	return worst, d, true
}

// --- the autopilot gate -----------------------------------------------------

// GateSwap is the autopilot delegation hook (Config.SwapGate): it
// approves a deaths-answering swap-in only when the engine's most
// recent decision chose the spare pool. Under ModeAuto a shrink verdict
// therefore suppresses the controller's reflexive swap; ModeSwap and a
// fresh engine (no decisions yet) preserve the pre-policy behavior.
func (e *Engine) GateSwap(deaths int) bool {
	if e == nil {
		return true
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.cfg.Mode == ModeSwap {
		return true
	}
	if e.cfg.Mode == ModeShrink || e.cfg.Mode == ModeRollback {
		return false
	}
	if e.lastStrategyValid {
		return e.lastStrategy == StrategySpareSwap
	}
	return true
}
