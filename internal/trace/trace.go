// Package trace records structured, machine-readable event journals from
// elastic training runs: reconfiguration events with their per-phase cost
// breakdowns, worker joins/exits, and run summaries, as JSON lines. The
// journal is what an operator would ingest into their observability stack;
// the tests and tools in this repo use it for post-hoc analysis of
// recovery behavior.
package trace

import (
	"encoding/json"
	"io"
	"sync"

	"repro/internal/metrics"
)

// Event is one journal record. Times are virtual seconds for simulated
// runs and wall-clock seconds since service start for real-process runs,
// so both produce the same JSON-lines journal shape.
type Event struct {
	T    float64 `json:"t"`    // time of emission
	Proc int     `json:"proc"` // emitting or affected process
	// Kind: "recovery", "join", "finish", "run" from training runs;
	// "member_join", "member_leave", "hb_suspect", "hb_alive", "hb_dead",
	// "conn_dead" from the rendezvous membership/heartbeat service.
	Kind   string             `json:"kind"`
	Seq    int                `json:"seq,omitempty"`    // reconfiguration sequence/round
	Reason string             `json:"reason,omitempty"` // "failure", "upscale", ...
	Phases map[string]float64 `json:"phases,omitempty"` // per-phase seconds
	Extra  map[string]any     `json:"extra,omitempty"`
}

// Recorder serializes events to a writer. All methods are safe for
// concurrent use, and a nil *Recorder discards everything, so callers can
// emit unconditionally.
type Recorder struct {
	mu     sync.Mutex
	enc    *json.Encoder
	events int
	err    error
}

// New builds a recorder over w (pass nil to discard).
func New(w io.Writer) *Recorder {
	if w == nil {
		return nil
	}
	return &Recorder{enc: json.NewEncoder(w)}
}

// Emit writes one event. Errors are sticky and reported by Err.
func (r *Recorder) Emit(ev Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil {
		return
	}
	if err := r.enc.Encode(&ev); err != nil {
		r.err = err
		return
	}
	r.events++
	obsCountEvent(ev.Kind)
}

// Recovery emits a reconfiguration event with its cost breakdown.
func (r *Recorder) Recovery(t float64, proc, seq int, reason string, bd *metrics.Breakdown, newcomer bool) {
	if r == nil {
		return
	}
	ev := Event{T: t, Proc: proc, Kind: "recovery", Seq: seq, Reason: reason}
	if bd != nil {
		ev.Phases = make(map[string]float64)
		for _, p := range bd.Phases() {
			ev.Phases[string(p)] = bd.Get(p)
		}
	}
	if newcomer {
		ev.Kind = "join"
	}
	r.Emit(ev)
}

// Finish emits a worker-completion record.
func (r *Recorder) Finish(t float64, proc, rank, size int) {
	r.Emit(Event{T: t, Proc: proc, Kind: "finish", Extra: map[string]any{"rank": rank, "size": size}})
}

// Run emits a run summary.
func (r *Recorder) Run(t float64, size int, events int) {
	r.Emit(Event{T: t, Proc: -1, Kind: "run", Extra: map[string]any{"final_size": size, "events": events}})
}

// Membership emits a membership or failure-detector record from the
// rendezvous service or a worker daemon. kind is one of "member_join",
// "member_leave", "hb_suspect", "hb_alive" (suspect recovered),
// "hb_dead" (declared on heartbeat silence) or "conn_dead" (declared on
// the unclean close of its control connection); proc is the affected
// process.
func (r *Recorder) Membership(t float64, proc int, kind string, extra map[string]any) {
	r.Emit(Event{T: t, Proc: proc, Kind: kind, Extra: extra})
}

// Decision emits an autopilot control-loop record: what the elasticity
// controller decided at an epoch boundary (swap_in / scale_up /
// scale_down), how many spares it admitted, and the world size it was
// steering toward. Seq carries the training step so journal analysis
// can line decisions up with the rounds they took effect at.
func (r *Recorder) Decision(t float64, proc, step int, kind string, admits, target int, reason string) {
	r.Emit(Event{T: t, Proc: proc, Kind: "autopilot", Seq: step, Reason: reason, Extra: map[string]any{
		"decision": kind, "admits": admits, "target": target,
	}})
}

// PolicyDecision emits a recovery-policy record at decision time: the
// failure class the engine saw (Reason), the strategy it chose, its
// predicted cost, and the full candidate price list. Seq is the
// engine's decision ordinal, so decide/realized pairs line up.
func (r *Recorder) PolicyDecision(t float64, proc, seq int, class, choice string, predicted float64, costs map[string]float64) {
	r.Emit(Event{T: t, Proc: proc, Kind: "policy", Seq: seq, Reason: class, Extra: map[string]any{
		"phase": "decide", "choice": choice, "predicted": predicted, "costs": costs,
	}})
}

// PolicyOutcome emits the closing half of a policy record once the
// chosen strategy's realized recovery cost has been measured: predicted
// vs realized plus the regret (realized minus predicted, clamped at
// zero) that the policy-quality figures plot.
func (r *Recorder) PolicyOutcome(t float64, proc, seq int, choice string, predicted, realized, regret float64) {
	r.Emit(Event{T: t, Proc: proc, Kind: "policy", Seq: seq, Extra: map[string]any{
		"phase": "realized", "choice": choice, "predicted": predicted,
		"realized": realized, "regret": regret,
	}})
}

// Count reports how many events were written.
func (r *Recorder) Count() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.events
}

// Err reports the first write error, if any.
func (r *Recorder) Err() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}
