package main

import (
	"fmt"
	"time"
)

// Per-layer numbers taken from outside the daemons on a traced launch:
// [scrape] values come from /metrics (internal/obs counters the layers
// already keep), [log] values from the receive times of existing log
// lines and from the journal's recovery records. Nothing here adds
// instrumentation to the program under test.

// stepLayers turns the lead's cumulative counters into per-step numbers.
// steps is how many steps the lead had printed when it was scraped, and
// uptimeS how old the lead was.
func stepLayers(s scrape, steps int, uptimeS float64) map[string]float64 {
	out := map[string]float64{}
	if len(s) == 0 || steps == 0 {
		return out
	}
	per := func(v float64) float64 { return v / float64(steps) }
	share := func(part, whole float64) float64 {
		if whole == 0 {
			return 0
		}
		return part / whole
	}
	txBytes := s.sum("tcpnet_tx_bytes_total")
	out["tcpnet.tx_bytes_per_step"] = per(txBytes)
	out["tcpnet.tx_frames_per_step"] = per(s.sum("tcpnet_tx_frames_total"))
	out["tcpnet.writev_byte_share"] = share(s.sum("tcpnet_tx_writev_bytes_total"), txBytes)
	out["tcpnet.pool_miss_share"] = share(s.sum("tcpnet_frame_pool_misses_total"), s.sum("tcpnet_frame_pool_gets_total"))
	out["tcpnet.write_flush_ms_per_step"] = per(s.sum("tcpnet_write_flush_seconds_sum") * 1e3)
	out["mpi.collective_ms_per_step"] = share(s.sum("mpi_allreduce_seconds_sum")*1e3, s.sum("mpi_allreduce_seconds_count"))
	out["mpi.tuner_decisions_per_step"] = per(s.sum("mpi_tuner_decisions_total"))
	out["trace.events_per_step"] = per(s.sum("trace_events_total"))
	if uptimeS > 0 {
		out["rendezvous.heartbeats_per_s"] = s.sum("rendezvous_heartbeats_total") / uptimeS
	}
	return out
}

// tailLayers reports the step-time tail, what a step spends outside the
// collective (the wrapper's Agree, per-step make, journal Plan, Printf,
// and on the kill workloads the -step-interval pause), and how much the
// step time grew over the window: the median of its last eighth against
// the median of its first. A daemon whose per-step cost depends on how
// long it has been up shows here (0 for windows under 64 steps).
func tailLayers(gapsMs []float64, collectiveMs float64) map[string]float64 {
	out := map[string]float64{
		"elasticd.step_p99_ms":                    percentile(gapsMs, 99),
		"elasticd.step_max_ms":                    maxOf(gapsMs),
		"elasticd.outside_collective_ms_per_step": mean(gapsMs) - collectiveMs,
	}
	if n := len(gapsMs); n >= 64 {
		first, last := median(gapsMs[:n/8]), median(gapsMs[n-n/8:])
		out["elasticd.step_drift_pct"] = (last - first) / first * 100
	}
	return out
}

// episodeLayers splits one recovery into its terms. Every boundary is the
// latest survivor's, so the terms chain without gaps:
//
//	SIGKILL → verdict delivered (rendezvous.detect_ms)
//	        → reconfigured      (ulfm.verdict_to_reconfigured_ms)
//	        → first good step   (elasticd.retry_ms)          = recovery_s
//	with a spare:  reconfigured → admitted (autopilot.reconfigured_to_admit_ms)
//	        → every member at full size (autopilot.admit_to_enter_ms) = restore_s
//
// It must run after the processes have exited (journals are flushed at
// exit) and before the world's scratch directory is removed.
func episodeLayers(wd *world, victim *worker, survivors []*worker, scrapes map[*worker]scrape,
	killAt, recoveredAt, restoredAt time.Time) map[string]float64 {
	out := map[string]float64{}
	ms := func(from, to time.Time) float64 { return to.Sub(from).Seconds() * 1e3 }

	if t, ok := wd.lead().firstLog(fmt.Sprintf(logSuspected, victim.proc)); ok {
		out["rendezvous.suspect_ms"] = ms(killAt, t)
	}
	downAt, okDown := lastOf(survivors, func(w *worker) (time.Time, bool) {
		return w.firstLog(fmt.Sprintf(logPeerDown, victim.proc))
	})
	reconfAt, okReconf := lastOf(survivors, func(w *worker) (time.Time, bool) { return w.firstLog(logReconfigured) })
	if okDown && okReconf {
		out["rendezvous.detect_ms"] = ms(killAt, downAt)
		out["ulfm.verdict_to_reconfigured_ms"] = ms(downAt, reconfAt)
		out["elasticd.retry_ms"] = ms(reconfAt, recoveredAt)
	}
	if okReconf && wd.cfg.swap {
		for _, w := range survivors {
			if t, ok := w.firstLog(logAdmitted); ok {
				out["autopilot.reconfigured_to_admit_ms"] = ms(reconfAt, t)
				out["autopilot.admit_to_enter_ms"] = ms(t, restoredAt)
			}
		}
	}

	// Journal recovery records: seconds per ULFM phase on each survivor;
	// the slowest survivor bounds the repair.
	for _, w := range survivors {
		recs, err := readRecoveriesFile(w.journal)
		if err != nil || len(recs) == 0 {
			continue
		}
		for _, phase := range []string{"revoke", "agree", "shrink"} {
			key := "ulfm.phase_" + phase + "_ms"
			if v := recs[0].Phases[phase] * 1e3; v > out[key] {
				out[key] = v
			}
		}
	}
	// The retry phase is not in the journal record; ulfm keeps it as a
	// histogram, scraped once the world was back at its final size.
	var dialRetries float64
	for _, w := range survivors {
		s, ok := scrapes[w]
		if !ok {
			continue
		}
		dialRetries += s.sum("tcpnet_dial_retries_total")
		if v := s.sum("ulfm_recovery_phase_seconds_sum", "phase", "retry") * 1e3; v > out["ulfm.phase_retry_ms"] {
			out["ulfm.phase_retry_ms"] = v
		}
	}
	out["tcpnet.dial_retries_per_recovery"] = dialRetries
	return out
}

// foldLayers folds per-episode layer maps into one map, with the same
// estimator the episode aggregates use. A key an episode did not produce
// counts as absent there, not as zero.
func foldLayers(eps []map[string]float64) map[string]float64 {
	samples := map[string][]float64{}
	for _, m := range eps {
		for k, v := range m {
			samples[k] = append(samples[k], v)
		}
	}
	out := map[string]float64{}
	for k, v := range samples {
		out[k] = midmean(v)
	}
	return out
}
