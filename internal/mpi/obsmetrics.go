package mpi

// Per-collective latency metrics. Children are resolved once at package
// init and indexed by AllreduceAlgo, so the dispatch path adds one
// time.Now, one array index, and two atomics per collective — nothing
// that shows up next to a multi-millisecond allreduce.

import (
	"time"

	"repro/internal/obs"
)

var (
	obsAllreduceSeconds [algoCount]*obs.Histogram
	obsTunerDecisions   [algoCount]*obs.Counter
	obsAllreduceErrors  = obs.Default().Counter("mpi_allreduce_errors_total",
		"Allreduces that returned an error (peer failure, revoked comm, shutdown).")

	obsAgreeSeconds = obs.Default().Histogram("mpi_agree_seconds",
		"Wall latency of one fault-tolerant agreement at this rank (entry to early return).",
		obs.SecondsBuckets())
	// obsAgreeMsgs is indexed by agreement message kind (agree.go), with
	// agreeReply for decisions sent outside the tree.
	obsAgreeMsgs [agreeReply + 1]*obs.Counter
)

func init() {
	for k, label := range [...]string{agreeUp: "up", agreeDown: "down", agreeQuery: "query", agreeReply: "reply"} {
		obsAgreeMsgs[k] = obs.Default().Counter("mpi_agree_messages_total",
			"Agreement messages sent: contributions up the tree, decisions down it, queries to adopted children, and decisions replied to latecomers or handed off on leaving.",
			obs.L("kind", label))
	}
	for a := AlgoAuto; int(a) < algoCount; a++ {
		obsAllreduceSeconds[a] = obs.Default().Histogram("mpi_allreduce_seconds",
			"Wall latency of one allreduce, by schedule.",
			obs.SecondsBuckets(), obs.L("algo", a.String()))
		obsTunerDecisions[a] = obs.Default().Counter("mpi_tuner_decisions_total",
			"Schedules picked by the self-tuning allreduce selector.",
			obs.L("algo", a.String()))
	}
}

// observeAllreduce records one completed (or failed) allreduce under the
// schedule that ran it. Out-of-range algos (future additions missing an
// init entry) fall back to the auto child rather than panicking mid-step.
func observeAllreduce(algo AllreduceAlgo, start time.Time, failed bool) {
	if algo < 0 || int(algo) >= len(obsAllreduceSeconds) {
		algo = AlgoAuto
	}
	obsAllreduceSeconds[algo].ObserveSince(start)
	if failed {
		obsAllreduceErrors.Inc()
	}
}

// observeTunerDecision counts one selector pick under its schedule.
func observeTunerDecision(algo AllreduceAlgo) {
	if algo < 0 || int(algo) >= len(obsTunerDecisions) {
		algo = AlgoAuto
	}
	obsTunerDecisions[algo].Inc()
}
