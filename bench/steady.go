package main

import "time"

// steadyWindow is what one failure-free measured window produced.
type steadyWindow struct {
	verdict
	setupS     float64
	stepsPerS  float64
	gapsMs     []float64 // gaps between consecutive measured step lines on the lead
	cpuPerStep float64   // CPU-ms of all workers per step the lead ran, warm-up included
	rssMB      []float64 // ru_maxrss of each worker
	leadScrape scrape    // traced launches only: the lead's /metrics when the window closed
	leadSteps  int       // lead step lines at that moment
	uptimeS    float64   // lead age at that moment
}

// runSteady launches a world with -step-interval 0 that would run
// forever, lets warm steps pass on the lead, measures for the given
// wall time, and stops the world. The load is closed-loop and the
// daemons' own: four workers in lock step; the driver only reads pipes.
func runSteady(env *env, cfg worldCfg, warm int, measure time.Duration) *steadyWindow {
	cfg.steps = 1 << 30
	wd, err := launchWorld(env.elasticd, env.scratch, cfg)
	if err != nil {
		return &steadyWindow{verdict: verdict{attempted: 1, failed: 1, problems: []string{err.Error()}}}
	}
	defer wd.stop()
	out := &steadyWindow{setupS: wd.setup.Seconds()}
	lead := wd.lead()
	anyExited := func() bool {
		for _, w := range wd.workers {
			if w.exited {
				return true
			}
		}
		return false
	}
	deadline := time.Now().Add(measure + 60*time.Second)
	if !wd.until(deadline, func() bool { return len(lead.steps) > warm || anyExited() }) || anyExited() {
		out.attempted, out.failed = 1, 1
		out.problems = append(out.problems, "world stopped stepping during warm-up:\n"+wd.tail())
		return out
	}
	opened := lead.steps[warm].t
	wd.until(opened.Add(measure), anyExited)
	closedAt := time.Now()
	measured := lead.steps[warm:]
	if cfg.traced {
		out.leadSteps = len(lead.steps)
		out.uptimeS = closedAt.Sub(wd.t0).Seconds()
		if out.leadScrape, err = lead.scrape(); err != nil {
			out.problems = append(out.problems, "scrape: "+err.Error())
		}
	}
	premature := anyExited()
	wd.stop()

	// Oracle: every line of every worker, not just the measured ones.
	full := expectation{cfg.size, fullSum(wd)}
	for _, w := range wd.workers {
		checkLines(&out.verdict, w, 0, len(w.steps), func(int) expectation { return full })
		if len(w.steps) < len(measured) {
			out.fail(len(measured)-len(w.steps), "%s: printed %d steps while the lead measured %d", w.name, len(w.steps), len(measured))
		}
	}
	if premature {
		out.fail(1, "a worker exited before the window closed:\n%s", wd.tail())
	}
	if len(measured) < 2 {
		out.fail(1, "only %d measured steps", len(measured))
		return out
	}
	for i := 1; i < len(measured); i++ {
		out.gapsMs = append(out.gapsMs, measured[i].t.Sub(measured[i-1].t).Seconds()*1e3)
	}
	out.stepsPerS = float64(len(measured)-1) / measured[len(measured)-1].t.Sub(measured[0].t).Seconds()
	var cpu float64
	for _, w := range wd.workers {
		cpu += w.cpuSeconds()
		out.rssMB = append(out.rssMB, w.maxRSSMB())
	}
	out.cpuPerStep = cpu * 1e3 / float64(len(lead.steps))
	return out
}

// coldLaunch measures one setup sample: a world from launch to every
// worker's first step, which must be correct. The world is stopped rather
// than left to run out a -steps 1: when the faster workers exit, the
// slowest one's closing Agree redials a vanished peer through the whole
// back-off (1.55 s) before it prints — a shutdown race, not set-up.
func coldLaunch(env *env, cfg worldCfg) (setupS float64, v verdict, err error) {
	cfg.steps = 1 << 30
	wd, err := launchWorld(env.elasticd, env.scratch, cfg)
	if err != nil {
		return 0, verdict{attempted: cfg.size, failed: cfg.size, problems: []string{err.Error()}}, err
	}
	wd.stop()
	full := expectation{cfg.size, fullSum(wd)}
	for _, w := range wd.workers {
		checkLines(&v, w, 0, len(w.steps), func(int) expectation { return full })
	}
	return wd.setup.Seconds(), v, nil
}
