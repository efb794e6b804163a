package main

import (
	"fmt"
	"sort"
	"syscall"
	"time"
)

// A kill episode is one cold launch that loses a worker: the world runs
// failure-free for killAfter steps, the driver waits 20 ms after the
// victim's last step line so every worker is inside its -step-interval
// pause, SIGKILLs the victim, and the survivors (plus the spare, with
// swap) must finish the remaining steps at the repaired size with the
// right sums. Killing in the pause is deliberate: a kill that lands
// inside an allreduce recovers in one of several modes (0.6 s, 1.6 s,
// 2.2 s on loopback), which no median steadies; the traced kill_shrink
// run reports that case separately (midreduce).

const (
	episodeTimeout  = 40 * time.Second
	pauseBeforeKill = 20 * time.Millisecond
	postKillSteps   = 10
	goodputSpan     = 8 // ≤ the smallest killAfter and < postKillSteps-1
	killInterval    = "50ms"
)

// killPlan is what the seed decides for one episode.
type killPlan struct {
	killAfter int // victim's step lines before the kill, 8..12
	victim    int // index into the non-lead gathered workers ordered by ProcID
}

type verdict struct {
	attempted, failed int
	problems          []string
}

func (v *verdict) fail(n int, format string, args ...any) {
	v.failed += n
	if len(v.problems) < 20 {
		v.problems = append(v.problems, fmt.Sprintf(format, args...))
	}
}

func (v *verdict) add(o verdict) {
	v.attempted += o.attempted
	v.failed += o.failed
	v.problems = append(v.problems, o.problems...)
}

// episode is what one kill episode measured.
type episode struct {
	verdict
	setupS    float64
	recoveryS float64   // SIGKILL → last survivor's first correct step at size-1
	restoreS  float64   // SIGKILL → last final member's first correct step at the final size
	goodput   float64   // lead's correct steps / wall over goodputSpan steps either side of the kill
	gapsMs    []float64 // lead's failure-free step gaps (before the kill)
	leadSteps int
	cpuS      float64
	rssMB     []float64          // ru_maxrss of each survivor
	layers    map[string]float64 // traced launches only
}

// expectation is the (size, sum) a step line must carry.
type expectation struct {
	size int
	sum  float64
}

// fullSum is what the gathered world reduces to: each worker contributes
// proc+1. ProcIDs follow join order, so with a spare racing the workers
// to the rendezvous the gathered set is not always 0..size-1.
func fullSum(wd *world) float64 {
	var sum float64
	for _, w := range wd.gathered() {
		sum += float64(w.proc + 1)
	}
	return sum
}

// membershipOracle returns, per step index, what every member must print:
// the sum names the member set exactly.
func membershipOracle(size int, full float64, victimProc, spareProc, killAfter int, swap bool) func(step int) expectation {
	shrunk := expectation{size - 1, full - float64(victimProc+1)}
	return func(step int) expectation {
		switch {
		case step < killAfter:
			return expectation{size, full}
		case step == killAfter || !swap:
			return shrunk
		default:
			return expectation{size, shrunk.sum + float64(spareProc+1)}
		}
	}
}

// checkLines holds a worker's step lines against the oracle: line i must
// be step first+i with the expected size and sum, and there must be
// exactly count of them. Every wrong, missing or surplus line is one
// failed step.
func checkLines(v *verdict, w *worker, first, count int, want func(step int) expectation) {
	v.attempted += count
	for i, s := range w.steps {
		if i >= count {
			v.fail(len(w.steps)-count, "%s: %d step lines beyond the expected %d", w.name, len(w.steps)-count, count)
			break
		}
		e := want(first + i)
		if s.step != first+i || s.proc != w.proc || s.size != e.size || s.sum != e.sum {
			v.fail(1, "%s: line %d is step %d proc %d size %d sum %.0f, want step %d proc %d size %d sum %.0f",
				w.name, i, s.step, s.proc, s.size, s.sum, first+i, w.proc, e.size, e.sum)
		}
	}
	if missing := count - len(w.steps); missing > 0 {
		v.fail(missing, "%s: %d of %d step lines never produced", w.name, missing, count)
	}
}

func checkExitZero(v *verdict, w *worker) {
	if !w.exited {
		v.fail(1, "%s: still running at episode timeout", w.name)
	} else if !w.state.Success() {
		v.fail(1, "%s: exited %v, want 0", w.name, w.state)
	}
}

// nonLeadByProc orders the killable workers by the ProcID rendezvous gave
// them (join order, not launch order).
func nonLeadByProc(wd *world) []*worker {
	var out []*worker
	for _, w := range wd.gathered() {
		if w.role != roleLead {
			out = append(out, w)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].proc < out[j].proc })
	return out
}

// firstStepAfter is when w first printed a step at size after t0.
func firstStepAfter(w *worker, t0 time.Time, size int) (time.Time, bool) {
	for _, s := range w.steps {
		if s.size == size && s.t.After(t0) {
			return s.t, true
		}
	}
	return time.Time{}, false
}

// lastOf returns the latest of the per-worker times f yields, and whether
// every worker had one.
func lastOf(ws []*worker, f func(*worker) (time.Time, bool)) (time.Time, bool) {
	var last time.Time
	for _, w := range ws {
		t, ok := f(w)
		if !ok {
			return time.Time{}, false
		}
		if t.After(last) {
			last = t
		}
	}
	return last, len(ws) > 0
}

// runEpisode launches a world and plays one kill against it. Whatever
// goes wrong — a launch that fails, an oracle violation, a timeout — is
// in the episode's verdict; an episode that never launched has setupS 0.
func runEpisode(env *env, cfg worldCfg, plan killPlan) *episode {
	cfg.interval = killInterval
	cfg.steps = plan.killAfter + postKillSteps
	expected := cfg.size*cfg.steps - postKillSteps // survivors all steps, victim killAfter
	if cfg.swap {
		expected += postKillSteps - 1 // the newcomer enters one step after the shrink
	}
	wd, err := launchWorld(env.elasticd, env.scratch, cfg)
	if err != nil {
		return &episode{verdict: verdict{attempted: expected, failed: expected, problems: []string{err.Error()}}}
	}
	defer wd.stop()
	ep := &episode{setupS: wd.setup.Seconds()}
	deadline := time.Now().Add(episodeTimeout)

	victim := nonLeadByProc(wd)[plan.victim]
	wd.until(deadline, func() bool { return len(victim.steps) >= plan.killAfter || victim.exited })
	paused := time.Now()
	// Traced: the lead's per-step counters are read here, inside the
	// pause and before the kill, so they describe failure-free steps (the
	// allreduce the kill breaks would otherwise dominate the means).
	var leadScrape scrape
	var scrapedSteps int
	var scrapedUptime float64
	if cfg.traced {
		scrapedSteps, scrapedUptime = len(wd.lead().steps), paused.Sub(wd.t0).Seconds()
		leadScrape, _ = wd.lead().scrape() // a failed scrape leaves the per-step layers absent
	}
	wd.until(paused.Add(pauseBeforeKill), func() bool { return false })
	killAt := time.Now()
	_ = victim.cmd.Process.Signal(syscall.SIGKILL) // an already-dead victim shows up in the oracle

	var survivors, members []*worker
	for _, w := range wd.workers {
		if w != victim && w.role != roleSpare {
			survivors = append(survivors, w)
		}
		if w != victim {
			members = append(members, w)
		}
	}
	finalSize := cfg.size - 1
	if cfg.swap {
		finalSize = cfg.size
	}
	restoredAt := func() (time.Time, bool) {
		return lastOf(members, func(w *worker) (time.Time, bool) { return firstStepAfter(w, killAt, finalSize) })
	}
	wd.until(deadline, func() bool { _, ok := restoredAt(); return ok || wd.allExited() })
	var scrapes map[*worker]scrape
	if cfg.traced {
		scrapes = map[*worker]scrape{}
		for _, w := range members {
			if s, err := w.scrape(); err == nil {
				scrapes[w] = s
			}
		}
	}
	wd.until(deadline, wd.allExited)

	// Oracle.
	spareProc := -1
	if sp := wd.spare(); sp != nil {
		spareProc = sp.proc
	}
	want := membershipOracle(cfg.size, fullSum(wd), victim.proc, spareProc, plan.killAfter, cfg.swap)
	for _, w := range survivors {
		checkLines(&ep.verdict, w, 0, cfg.steps, want)
		checkExitZero(&ep.verdict, w)
	}
	checkLines(&ep.verdict, victim, 0, plan.killAfter, want)
	if !victim.killedBy(syscall.SIGKILL) {
		ep.fail(1, "victim %s: ended %v, want killed by the driver", victim.name, victim.state)
	}
	if sp := wd.spare(); sp != nil {
		checkLines(&ep.verdict, sp, plan.killAfter+1, postKillSteps-1, want)
		checkExitZero(&ep.verdict, sp)
	}

	// Timings.
	recoveredAt, okRec := lastOf(survivors, func(w *worker) (time.Time, bool) { return firstStepAfter(w, killAt, cfg.size-1) })
	restored, okRes := restoredAt()
	if okRec && okRes {
		ep.recoveryS = recoveredAt.Sub(killAt).Seconds()
		ep.restoreS = restored.Sub(killAt).Seconds()
	}
	lead := wd.lead()
	ep.leadSteps = len(lead.steps)
	// Goodput is rated over the same stretch in every episode, whatever
	// kill step the seed drew: goodputSpan steps either side of the kill,
	// outage included. The lead's last step stays outside it: when the
	// other workers finish and exit first, its closing Agree can sit in
	// dial back-off for 1.55 s, a shutdown race rather than a step cost.
	if from, to := plan.killAfter-goodputSpan, plan.killAfter+goodputSpan; from >= 0 && to < len(lead.steps) {
		ep.goodput = float64(to-from) / lead.steps[to].t.Sub(lead.steps[from].t).Seconds()
	}
	for i := 1; i < len(lead.steps) && i < plan.killAfter; i++ {
		ep.gapsMs = append(ep.gapsMs, lead.steps[i].t.Sub(lead.steps[i-1].t).Seconds()*1e3)
	}
	for _, w := range wd.workers {
		ep.cpuS += w.cpuSeconds()
	}
	for _, w := range survivors {
		ep.rssMB = append(ep.rssMB, w.maxRSSMB())
	}
	if cfg.traced && okRec && okRes {
		ep.layers = episodeLayers(wd, victim, survivors, scrapes, killAt, recoveredAt, restored)
		for k, v := range stepLayers(leadScrape, scrapedSteps, scrapedUptime) {
			ep.layers[k] = v
		}
	}
	return ep
}

// midreduce plays the diagnostic the pause-kill avoids: -step-interval 0,
// so the SIGKILL lands inside an allreduce. It reports SIGKILL → last
// survivor's `reconfigured` line and the verdict → reconfigured part of
// it, both in seconds. No oracle: the run is stopped as soon as the
// survivors have reconfigured.
func midreduce(env *env, cfg worldCfg, plan killPlan) (repairS, verdictToReconfS float64, err error) {
	cfg.interval = "0"
	cfg.steps = 1 << 30
	cfg.swap = false
	wd, err := launchWorld(env.elasticd, env.scratch, cfg)
	if err != nil {
		return 0, 0, err
	}
	defer wd.stop()
	deadline := time.Now().Add(episodeTimeout)
	victim := nonLeadByProc(wd)[plan.victim]
	wd.until(deadline, func() bool { return len(victim.steps) >= plan.killAfter || victim.exited })
	killAt := time.Now()
	_ = victim.cmd.Process.Signal(syscall.SIGKILL) // see runEpisode
	var survivors []*worker
	for _, w := range wd.gathered() {
		if w != victim {
			survivors = append(survivors, w)
		}
	}
	reconfAt := func() (time.Time, bool) {
		return lastOf(survivors, func(w *worker) (time.Time, bool) { return w.firstLog(logReconfigured) })
	}
	if !wd.until(deadline, func() bool { _, ok := reconfAt(); return ok }) {
		return 0, 0, fmt.Errorf("midreduce: survivors never reconfigured:\n%s", wd.tail())
	}
	reconf, _ := reconfAt()
	// Survivors can learn of the death from their own sockets and finish
	// repairing before the hub's verdict reaches them; give it a moment.
	downAt := func() (time.Time, bool) {
		return lastOf(survivors, func(w *worker) (time.Time, bool) {
			return w.firstLog(fmt.Sprintf(logPeerDown, victim.proc))
		})
	}
	if !wd.until(time.Now().Add(2*time.Second), func() bool { _, ok := downAt(); return ok }) {
		return 0, 0, fmt.Errorf("midreduce: no death verdict logged:\n%s", wd.tail())
	}
	down, _ := downAt()
	return reconf.Sub(killAt).Seconds(), reconf.Sub(down).Seconds(), nil
}
