package rendezvous

// Membership metrics for the rendezvous service. The peers-by-state
// gauges mirror the failure detector exactly: every gauge move happens at
// the same call site as the detector transition it reflects, under the
// server's lock, so a scrape can never observe a state the detector
// doesn't hold.

import "repro/internal/obs"

var (
	obsJoins = obs.Default().Counter("rendezvous_joins_total",
		"Workers admitted (ProcIDs assigned).")
	obsLeaves = obs.Default().Counter("rendezvous_leaves_total",
		"Clean departures (leave messages, not detector declarations).")
	obsHeartbeats = obs.Default().Counter("rendezvous_heartbeats_total",
		"Heartbeat messages accepted from armed members.")
	obsSweeps = obs.Default().Counter("rendezvous_sweeps_total",
		"Failure-detector sweeps run.")
	obsHBGap = obs.Default().Histogram("rendezvous_heartbeat_gap_seconds",
		"Silence between consecutive heartbeats from one member.",
		obs.SecondsBuckets())
	obsVerdicts = obs.Default().Counter("rendezvous_verdicts_total",
		"SWIM death verdicts accepted from members (gossip mode).")
	obsAcquittals = obs.Default().Counter("rendezvous_acquittals_total",
		"Verdicts dismissed because the accused answered the doubt probe (false positives).")
	obsDeltas = obs.Default().Counter("rendezvous_deltas_total",
		"Incremental peerup/peerdown messages sent (full map only at join).")
	obsStrayHBs = obs.Default().Counter("rendezvous_stray_heartbeats_total",
		"Heartbeats received while in gossip mode (invariant: zero).")
	obsSpares = obs.Default().Gauge("rendezvous_spares",
		"Warm spares currently registered and idle (not yet activated).")
	obsActivations = obs.Default().Counter("rendezvous_spare_activations_total",
		"Spares promoted to full members after a Grow admission.")
	obsHubConnected = obs.Default().Gauge("rendezvous_hub_connected",
		"Client side: 1 while this process's notification reader holds its connection to the hub, 0 once it is lost or closed — at 0 no failure can be announced here.")
	obsPeers       [StateDead + 1]*obs.Gauge
	obsTransitions [StateDead + 1]*obs.Counter
	obsConvictions [causeVerdict + 1]*obs.Counter // indexed by cause; causeLeft is not a conviction
)

func init() {
	for st := StateAlive; st <= StateDead; st++ {
		obsPeers[st] = obs.Default().Gauge("rendezvous_peers",
			"Members currently in each failure-detector state.",
			obs.L("state", st.String()))
		obsTransitions[st] = obs.Default().Counter("rendezvous_detector_transitions_total",
			"Detector transitions into each state (alive counts suspect recoveries).",
			obs.L("to", st.String()))
	}
	for why := causeTimeout; why <= causeVerdict; why++ {
		obsConvictions[why] = obs.Default().Counter("rendezvous_convictions_total",
			"Members declared dead (stripped, peerdown broadcast), by evidence: heartbeat timeout, unclean close of the control connection, or an upheld SWIM verdict.",
			obs.L("cause", why.String()))
	}
}

// obsPeerArmed records a member entering detector tracking (alive).
func obsPeerArmed() { obsPeers[StateAlive].Inc() }

// obsPeerGone records a member leaving detector tracking from state st.
func obsPeerGone(st State) { obsPeers[st].Dec() }

// obsTransition moves the gauges along a detector transition and counts
// it.
func obsTransition(tr Transition) {
	obsPeers[tr.From].Dec()
	obsPeers[tr.To].Inc()
	obsTransitions[tr.To].Inc()
}
