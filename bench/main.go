// Command elasticbench is the repository's benchmark: it launches the
// shipped elasticd as a world of four real processes over loopback TCP,
// reads what they print, and reports what a user of the daemon would see
// — failure-free steps/s, kill→recovery time, goodput through a failure,
// CPU, memory, set-up time — plus, on a traced run, a per-layer
// attribution taken from outside the daemons. See README.md.
//
//	bash bench/run.sh --workload steady_8k --seed 1 --seconds 12 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/mpi"
)

// env is where the driver finds and puts things, all inside the checkout.
type env struct {
	root     string // repository root
	elasticd string // built daemon
	scratch  string // journals of traced launches, removed per world
	spans    string // probe span files
	buildS   float64
}

// runWatchdog bounds one benchmark run: the harness allows 180 s, and a
// run that is still going shortly before that is stuck.
const runWatchdog = 170 * time.Second

func main() {
	root := flag.String("root", "..", "repository root (the directory holding go.mod and cmd/elasticd)")
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Int64("seed", 1, "picks each episode's victim among the non-lead ranks and its kill step in 8..12")
	seconds := flag.Float64("seconds", 16, "length of the measured window; kill workloads run seconds/episode-length episodes")
	traced := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the probe and a traced rerun")
	aa := flag.Bool("aa", false, "run every workload twice on this tree and compare the two sets against the bounds in BENCHMARK.json")
	probeOnly := flag.Bool("probe", false, "run only the in-process layer probe (at -workload's tensor size and codec) and print its metrics")
	flag.Parse()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		killAllWorlds()
		os.Exit(130)
	}()

	wl, ok := findWorkload(*name)
	if !ok && !*aa {
		die("unknown -workload %q (want one of %s)", *name, workloadNames())
	}
	e, err := locate(*root)
	if err != nil {
		die("%v", err)
	}
	if *probeOnly {
		os.Exit(probeMain(e, wl, *seed))
	}
	if err := e.buildDaemon(); err != nil {
		die("%v", err)
	}
	if *aa {
		os.Exit(aaMain(e, *seed, *seconds))
	}
	time.AfterFunc(runWatchdog, func() {
		killAllWorlds()
		fmt.Fprintf(os.Stderr, "elasticbench: run exceeded %v, giving up\n", runWatchdog)
		os.Exit(3)
	})
	var res *result
	list := endToEnd
	if *traced != 0 {
		res, list = runTraced(e, wl, *seed, *seconds), perLayer
	} else {
		res = runUntraced(e, wl, *seed, *seconds)
	}
	res.print(os.Stdout, list)
}

func die(format string, args ...any) {
	killAllWorlds()
	fmt.Fprintf(os.Stderr, "elasticbench: "+format+"\n", args...)
	os.Exit(2)
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// locate lays out .bench_build/ under the repository root.
func locate(root string) (*env, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	out := filepath.Join(abs, ".bench_build")
	e := &env{
		root:     abs,
		elasticd: filepath.Join(out, "bin", "elasticd"),
		scratch:  filepath.Join(out, "run"),
		spans:    filepath.Join(out, "spans"),
	}
	for _, d := range []string{filepath.Dir(e.elasticd), e.scratch, e.spans} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// buildDaemon builds cmd/elasticd from the checkout and times it
// (bench.build_s; not part of setup_s).
func (e *env) buildDaemon() error {
	start := time.Now()
	build := exec.Command("go", "build", "-o", e.elasticd, "./cmd/elasticd")
	build.Dir = e.root
	if msg, err := build.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/elasticd in %s: %v\n%s", e.root, err, msg)
	}
	e.buildS = time.Since(start).Seconds()
	return nil
}

// saveSpans writes the probe's spans, once, when the probe has ended.
func (e *env) saveSpans(t *tracer) (string, error) {
	path := filepath.Join(e.spans, t.run+".jsonl")
	return path, t.write(path)
}

// merge copies src's entries over dst's.
func merge(dst, src map[string]float64) {
	for k, v := range src {
		dst[k] = v
	}
}

// result is one run's answer.
type result struct {
	verdict
	values map[string]float64
	notes  []string // human-readable extras: sample counts, sum checks
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// print writes every metric of list by name with its unit, the notes and
// problems, and last the one-line JSON object the harness reads.
func (r *result) print(w io.Writer, list []metric) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	for _, m := range list {
		v := r.values[m.name]
		metrics[m.name] = mv{v, m.unit}
		fmt.Fprintf(w, "%-42s %16.4f %s\n", m.name, v, m.unit)
	}
	share := 0.0
	if r.attempted > 0 {
		share = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "%-42s %16.6f share (%d of %d steps)\n", "failed_step_share", share, r.failed, r.attempted)
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	for i, p := range r.problems {
		if i == 12 {
			fmt.Fprintf(w, "PROBLEM: ... and %d more\n", len(r.problems)-i)
			break
		}
		fmt.Fprintln(w, "PROBLEM:", p)
	}
	if r.attempted < 1 {
		r.attempted = 1
	}
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.failed == 0 && len(r.problems) == 0, r.attempted, r.failed, metrics})
	if err != nil {
		die("encode result: %v", err)
	}
	fmt.Fprintf(w, "%s\n", line)
}

// planner draws each episode's kill from the seed: same seed, same kills.
func planner(seed int64) func() killPlan {
	rng := rand.New(rand.NewSource(seed))
	return func() killPlan {
		return killPlan{killAfter: 8 + rng.Intn(5), victim: rng.Intn(worldSize - 1)}
	}
}

// coldLaunches is how many worlds a run starts only to time their set-up.
const coldLaunches = 6

func episodeCount(wl workload, seconds float64) int {
	n := int(seconds / wl.episodeS)
	if n < 2 {
		n = 2
	}
	return n
}

// episodeSet is a series of kill episodes folded into the end-to-end
// numbers they define.
type episodeSet struct {
	verdict
	setups, recovery, restore, goodput, gapsMs []float64
	rssMB                                      []float64
	cpuS                                       float64
	leadSteps                                  int
	layers                                     []map[string]float64
}

func (s *episodeSet) add(ep *episode) {
	s.verdict.add(ep.verdict)
	if ep.setupS == 0 {
		return // never launched
	}
	s.setups = append(s.setups, ep.setupS)
	s.recovery = append(s.recovery, ep.recoveryS)
	s.restore = append(s.restore, ep.restoreS)
	s.goodput = append(s.goodput, ep.goodput)
	s.gapsMs = append(s.gapsMs, ep.gapsMs...)
	s.cpuS += ep.cpuS
	s.leadSteps += ep.leadSteps
	s.rssMB = append(s.rssMB, ep.rssMB...)
	if ep.layers != nil {
		s.layers = append(s.layers, ep.layers)
	}
}

func playEpisodes(e *env, cfg worldCfg, next func() killPlan, n int) *episodeSet {
	s := &episodeSet{}
	for i := 0; i < n; i++ {
		s.add(runEpisode(e, cfg, next()))
	}
	return s
}

// runUntraced measures the end-to-end metrics with tracing off.
func runUntraced(e *env, wl workload, seed int64, seconds float64) *result {
	res := &result{values: map[string]float64{}}
	next := planner(seed)
	cfg := wl.cfg(false)
	// Set-up: coldLaunches worlds started only to be timed, plus every
	// launch the workload makes anyway; all cold (fresh processes, fresh
	// ports), one median.
	var setups []float64
	for i := 0; i < coldLaunches; i++ {
		s, v, err := coldLaunch(e, cfg)
		res.verdict.add(v)
		if err == nil {
			setups = append(setups, s)
		}
	}
	var eps *episodeSet
	if wl.episodes {
		eps = playEpisodes(e, cfg, next, episodeCount(wl, seconds))
		res.values["steps_per_s"] = 1e3 / mean(eps.gapsMs)
		res.values["step_p50_ms"] = median(eps.gapsMs)
		res.values["cpu_ms_per_step"] = eps.cpuS * 1e3 / float64(eps.leadSteps)
		res.note("step_p50_ms samples=%d (failure-free gaps on the lead, %d episodes)", len(eps.gapsMs), len(eps.setups))
	} else {
		win := runSteady(e, cfg, wl.warm, time.Duration(seconds*float64(time.Second)))
		res.verdict.add(win.verdict)
		eps = playEpisodes(e, cfg, next, wl.probes)
		// The probe episodes pause between steps, the window's world does
		// not: their set-up and memory are another launch shape's.
		eps.setups, eps.rssMB = nil, win.rssMB
		if win.setupS > 0 {
			setups = append(setups, win.setupS)
		}
		res.values["steps_per_s"] = win.stepsPerS
		res.values["step_p50_ms"] = median(win.gapsMs)
		res.values["cpu_ms_per_step"] = win.cpuPerStep
		res.note("step_p50_ms samples=%d  p99=%.3f ms  max=%.3f ms", len(win.gapsMs), percentile(win.gapsMs, 99), maxOf(win.gapsMs))
	}
	res.verdict.add(eps.verdict)
	res.values["peak_rss_mb"] = median(eps.rssMB)
	res.values["recovery_s"] = midmean(eps.recovery)
	res.values["restore_s"] = midmean(eps.restore)
	res.values["goodput_steps_per_s"] = midmean(eps.goodput)
	setups = append(setups, eps.setups...)
	res.values["setup_s"] = median(setups)
	res.note("recovery_s samples=%d %.3f  setup_s samples=%d %.3f  bench.build_s=%.3f",
		len(eps.recovery), eps.recovery, len(setups), setups, e.buildS)
	return res
}

// runTraced produces the per-layer metrics: the in-process probe, then
// the workload at half length untraced and again traced (-obs.listen and
// -trace on every daemon), whose difference is the tracing overhead.
func runTraced(e *env, wl workload, seed int64, seconds float64) *result {
	res := &result{values: map[string]float64{}}
	codec, err := mpi.ParseWireCodec(wl.codec)
	if err != nil {
		die("%v", err)
	}
	tr := newTracer(fmt.Sprintf("%s-seed%d", wl.name, seed))
	probe, problems := runProbe(tr, wl.n, codec)
	res.problems = append(res.problems, problems...)
	spanFile, err := e.saveSpans(tr)
	if err != nil {
		res.problems = append(res.problems, "write spans: "+err.Error())
	}
	res.note("probe: %d spans written to %s", len(tr.spans), spanFile)

	next := planner(seed)
	var layers map[string]float64
	var refRate, tracedRate, recoveryMs, restoreMs, meanStepMs float64
	if wl.episodes {
		n := (episodeCount(wl, seconds) + 1) / 2
		if n < 2 {
			n = 2
		}
		ref := playEpisodes(e, wl.cfg(false), next, n)
		eps := playEpisodes(e, wl.cfg(true), next, n)
		res.verdict.add(ref.verdict)
		res.verdict.add(eps.verdict)
		layers = foldLayers(eps.layers)
		refRate, tracedRate = midmean(ref.goodput), midmean(eps.goodput)
		recoveryMs, restoreMs = midmean(eps.recovery)*1e3, midmean(eps.restore)*1e3
		meanStepMs = mean(eps.gapsMs)
		merge(layers, tailLayers(eps.gapsMs, layers["mpi.collective_ms_per_step"]))
	} else {
		half := time.Duration(seconds / 2 * float64(time.Second))
		ref := runSteady(e, wl.cfg(false), wl.warm, half)
		win := runSteady(e, wl.cfg(true), wl.warm, half)
		eps := playEpisodes(e, wl.cfg(true), next, 1)
		res.verdict.add(ref.verdict)
		res.verdict.add(win.verdict)
		res.verdict.add(eps.verdict)
		layers = foldLayers(eps.layers)
		merge(layers, stepLayers(win.leadScrape, win.leadSteps, win.uptimeS))
		merge(layers, tailLayers(win.gapsMs, layers["mpi.collective_ms_per_step"]))
		refRate, tracedRate = ref.stepsPerS, win.stepsPerS
		recoveryMs, restoreMs = midmean(eps.recovery)*1e3, midmean(eps.restore)*1e3
		meanStepMs = mean(win.gapsMs)
	}
	if wl.name == "kill_shrink" {
		midreduceLayers(e, wl, next, res, layers)
	}
	merge(layers, probe)
	if refRate > 0 {
		layers["bench.trace_overhead_pct"] = (refRate - tracedRate) / refRate * 100
	}
	layers["bench.build_s"] = e.buildS
	res.values = layers

	// The two sum checks: the attribution must account for the totals.
	check := func(label string, total float64, terms ...float64) {
		ok, gap := sumCheck(total, 0.05, terms...)
		res.note("sumcheck %s: terms %.3f vs total %.3f ms, gap %+.2f%% ok=%v", label, total*(1+gap), total, gap*100, ok)
		if !ok {
			res.problems = append(res.problems, fmt.Sprintf("sum check %s: terms miss the total by %+.2f%%", label, gap*100))
		}
	}
	check("recovery = detect + verdict_to_reconfigured + retry", recoveryMs,
		layers["rendezvous.detect_ms"], layers["ulfm.verdict_to_reconfigured_ms"], layers["elasticd.retry_ms"])
	if wl.swap {
		check("restore = detect + verdict_to_reconfigured + reconfigured_to_admit + admit_to_enter", restoreMs,
			layers["rendezvous.detect_ms"], layers["ulfm.verdict_to_reconfigured_ms"],
			layers["autopilot.reconfigured_to_admit_ms"], layers["autopilot.admit_to_enter_ms"])
	}
	check("mean step = collective + outside_collective", meanStepMs,
		layers["mpi.collective_ms_per_step"], layers["elasticd.outside_collective_ms_per_step"])
	return res
}

// midreduceLayers adds the mid-allreduce kill diagnostic to the traced
// kill_shrink run: eight -step-interval 0 episodes, per-layer only,
// because the outcome is multi-modal.
func midreduceLayers(e *env, wl workload, next func() killPlan, res *result, layers map[string]float64) {
	var repairMs []float64
	slow := 0
	for i := 0; i < 8; i++ {
		repair, v2r, err := midreduce(e, wl.cfg(false), next())
		if err != nil {
			res.problems = append(res.problems, err.Error())
			continue
		}
		repairMs = append(repairMs, repair*1e3)
		if v2r > 0.5 {
			slow++
		}
	}
	if len(repairMs) > 0 {
		layers["ulfm.midreduce_repair_p50_ms"] = median(repairMs)
		layers["ulfm.midreduce_slow_share"] = float64(slow) / float64(len(repairMs))
		res.note("midreduce: %d episodes, repair ms %v", len(repairMs), repairMs)
	}
}

// probeMain runs the layer probe alone.
func probeMain(e *env, wl workload, seed int64) int {
	codec, err := mpi.ParseWireCodec(wl.codec)
	if err != nil {
		die("%v", err)
	}
	tr := newTracer(fmt.Sprintf("%s-seed%d", wl.name, seed))
	values, problems := runProbe(tr, wl.n, codec)
	for _, m := range perLayer {
		if v, ok := values[m.name]; ok {
			fmt.Printf("%-42s %16.4f %s\n", m.name, v, m.unit)
		}
	}
	if path, err := e.saveSpans(tr); err != nil {
		problems = append(problems, "write spans: "+err.Error())
	} else {
		fmt.Printf("%d spans written to %s\n", len(tr.spans), path)
	}
	for _, p := range problems {
		fmt.Println("PROBLEM:", p)
	}
	if len(problems) > 0 {
		return 1
	}
	return 0
}
