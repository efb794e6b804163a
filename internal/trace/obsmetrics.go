package trace

// Bridge from the journal to the live registry: every emitted event also
// bumps trace_events_total{kind=...}, so a scrape shows journal activity
// (and in particular recovery events) without reading the file. Known
// kinds get pre-resolved children; novel kinds share an "other" child to
// keep Emit off the registry's slow path.

import "repro/internal/obs"

var obsEventKinds = map[string]*obs.Counter{}

var obsEventOther *obs.Counter

func init() {
	for _, kind := range []string{
		"recovery", "join", "finish", "run",
		"member_join", "member_leave", "hb_suspect", "hb_alive", "hb_dead", "conn_dead",
	} {
		obsEventKinds[kind] = obs.Default().Counter("trace_events_total",
			"Journal events emitted, by kind.", obs.L("kind", kind))
	}
	obsEventOther = obs.Default().Counter("trace_events_total",
		"Journal events emitted, by kind.", obs.L("kind", "other"))
}

func obsCountEvent(kind string) {
	if c := obsEventKinds[kind]; c != nil {
		c.Inc()
		return
	}
	obsEventOther.Inc()
}
