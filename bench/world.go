package main

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// A world is one launch of real elasticd processes on loopback: a lead
// that hosts rendezvous (-serve -hb 100ms), plain workers, and optionally
// one warm spare. The driver never talks to the daemons' data plane; it
// reads their combined stdout/stderr pipes, stamps each line as it
// arrives, and signals processes. All state below is owned by the one
// goroutine that calls until(); reader goroutines only feed the channel.

type role int

const (
	roleLead role = iota
	roleWorker
	roleSpare
)

type logLine struct {
	t    time.Time
	text string
}

type stepRec struct {
	t time.Time
	stepLine
}

type worker struct {
	name    string
	role    role
	cmd     *exec.Cmd
	proc    int // ProcID the rendezvous assigned; -1 until a line reveals it
	obsURL  string
	journal string // -trace path, traced launches only
	steps   []stepRec
	logs    []logLine
	exited  bool
	state   *os.ProcessState
}

// firstLog returns when the worker first printed a line containing sub.
func (w *worker) firstLog(sub string) (time.Time, bool) {
	for _, l := range w.logs {
		if strings.Contains(l.text, sub) {
			return l.t, true
		}
	}
	return time.Time{}, false
}

func (w *worker) cpuSeconds() float64 {
	if w.state == nil {
		return 0
	}
	return w.state.UserTime().Seconds() + w.state.SystemTime().Seconds()
}

func (w *worker) maxRSSMB() float64 {
	if w.state == nil {
		return 0
	}
	ru, ok := w.state.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// killedBy reports whether the process died of sig.
func (w *worker) killedBy(sig syscall.Signal) bool {
	if w.state == nil {
		return false
	}
	ws, ok := w.state.Sys().(syscall.WaitStatus)
	return ok && ws.Signaled() && ws.Signal() == sig
}

type event struct {
	w      *worker
	t      time.Time
	text   string
	exited bool
}

// worldCfg is everything a launch varies.
type worldCfg struct {
	size     int    // gathered workers, lead included
	n        int    // float64 elements per allreduce
	codec    string // raw | fp16
	interval string // -step-interval
	algo     string // -allreduce
	steps    int    // -steps
	swap     bool   // -scale-policy swap on all, one -spare process, lead waits for it
	traced   bool   // -obs.listen and -trace on every process
}

type world struct {
	cfg     worldCfg
	rdv     string
	dir     string // scratch for journals
	workers []*worker
	events  chan event
	t0      time.Time     // lead launched
	setup   time.Duration // t0 → every gathered worker printed its first step
	pgid    int
}

// Process groups of worlds that may still have live children, so a signal
// to the driver (or a panic path through die) can take every elasticd
// down with it.
var live = struct {
	sync.Mutex
	pgids map[int]bool
}{pgids: map[int]bool{}}

func killAllWorlds() {
	live.Lock()
	defer live.Unlock()
	for pgid := range live.pgids {
		_ = syscall.Kill(-pgid, syscall.SIGKILL) // best effort on the way out
	}
}

const (
	launchTimeout = 30 * time.Second
	stopGrace     = 2 * time.Second
)

// freeLoopbackAddr picks a port the kernel considers free right now. The
// listener is closed before elasticd binds it; nothing else on the
// machine is racing for loopback ports during a run.
func freeLoopbackAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// launchWorld starts the lead, starts the rest when the lead logs that it
// hosts the rendezvous, and returns once every gathered worker has printed
// its first step — the span setup_s measures. On error every process that
// was started has been stopped.
func launchWorld(bin, scratch string, cfg worldCfg) (*world, error) {
	rdv, err := freeLoopbackAddr()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(scratch, "world-")
	if err != nil {
		return nil, err
	}
	wd := &world{
		cfg: cfg, rdv: rdv, dir: dir,
		// Deep enough that a reader never stalls a daemon's stdout while
		// the driver is busy with a scrape or a signal: a few seconds of
		// step lines at the 8 KiB rate.
		events: make(chan event, 8192),
	}
	lead := []string{"-serve", "-hb", "100ms", "-world", strconv.Itoa(cfg.size)}
	if cfg.swap {
		lead = append(lead, "-spares", "1")
	}
	wd.t0 = time.Now()
	if err := wd.start(bin, "lead", roleLead, lead); err != nil {
		wd.stop()
		return nil, err
	}
	leadW := wd.workers[0]
	deadline := wd.t0.Add(launchTimeout)
	hosting := func() bool { _, ok := leadW.firstLog(logHosting); return ok || leadW.exited }
	if !wd.until(deadline, hosting) || leadW.exited {
		wd.stop()
		return nil, fmt.Errorf("lead never hosted the rendezvous:\n%s", wd.tail())
	}
	for i := 1; i < cfg.size; i++ {
		if err := wd.start(bin, fmt.Sprintf("w%d", i), roleWorker, nil); err != nil {
			wd.stop()
			return nil, err
		}
	}
	if cfg.swap {
		if err := wd.start(bin, "spare", roleSpare, []string{"-spare"}); err != nil {
			wd.stop()
			return nil, err
		}
	}
	stepped := func() bool {
		for _, w := range wd.gathered() {
			if w.exited && len(w.steps) == 0 {
				return true // fail fast; checked below
			}
			if len(w.steps) == 0 {
				return false
			}
		}
		return true
	}
	ok := wd.until(deadline, stepped)
	var last time.Time
	for _, w := range wd.gathered() {
		if len(w.steps) == 0 {
			ok = false
			break
		}
		if w.steps[0].t.After(last) {
			last = w.steps[0].t
		}
	}
	if !ok {
		wd.stop()
		return nil, fmt.Errorf("world never produced a first step on every worker:\n%s", wd.tail())
	}
	wd.setup = last.Sub(wd.t0)
	return wd, nil
}

func (wd *world) start(bin, name string, r role, extra []string) error {
	c := wd.cfg
	args := append([]string{
		"-rendezvous", wd.rdv,
		"-n", strconv.Itoa(c.n),
		"-steps", strconv.Itoa(c.steps),
		"-step-interval", c.interval,
		"-codec", c.codec,
		"-allreduce", c.algo,
	}, extra...)
	if c.swap {
		args = append(args, "-scale-policy", "swap", "-xfer-rate", "0")
	}
	w := &worker{name: name, role: r, proc: -1}
	if c.traced {
		w.journal = filepath.Join(wd.dir, name+".jsonl")
		args = append(args, "-obs.listen", "127.0.0.1:0", "-trace", w.journal)
	}
	pr, pw, err := os.Pipe()
	if err != nil {
		return err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = pw, pw
	// One process group per world, led by the lead, so a single kill(2)
	// reaches every member; Pdeathsig covers the driver dying without
	// running its cleanup.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pgid: wd.pgid, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		pr.Close()
		pw.Close()
		return fmt.Errorf("start %s: %w", name, err)
	}
	pw.Close()
	if wd.pgid == 0 {
		wd.pgid = cmd.Process.Pid
		live.Lock()
		live.pgids[wd.pgid] = true
		live.Unlock()
	}
	w.cmd = cmd
	wd.workers = append(wd.workers, w)
	// The reader ends at EOF, which the child's exit produces; stop()
	// does not return before the exit event it sends has been consumed.
	go func() {
		sc := bufio.NewScanner(pr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			wd.events <- event{w: w, t: time.Now(), text: sc.Text()}
		}
		pr.Close()
		_ = cmd.Wait() // the exit status is read from ProcessState
		w.state = cmd.ProcessState
		wd.events <- event{w: w, t: time.Now(), exited: true}
	}()
	return nil
}

func (wd *world) handle(ev event) {
	w := ev.w
	if ev.exited {
		w.exited = true
		return
	}
	if sl, ok := parseStepLine(ev.text); ok {
		w.steps = append(w.steps, stepRec{t: ev.t, stepLine: sl})
		if w.proc < 0 {
			w.proc = sl.proc
		}
		return
	}
	w.logs = append(w.logs, logLine{t: ev.t, text: ev.text})
	if p, ok := intAfter(ev.text, logJoined); ok {
		w.proc = p
	}
	if u, ok := metricsURL(ev.text); ok {
		w.obsURL = u
	}
}

// until consumes daemon output until cond holds or the deadline passes.
func (wd *world) until(deadline time.Time, cond func() bool) bool {
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	for !cond() {
		select {
		case ev := <-wd.events:
			wd.handle(ev)
		case <-timer.C:
			return cond()
		}
	}
	return true
}

func (wd *world) allExited() bool {
	for _, w := range wd.workers {
		if !w.exited {
			return false
		}
	}
	return true
}

// gathered lists the processes that form the initial world (no spare).
func (wd *world) gathered() []*worker {
	var out []*worker
	for _, w := range wd.workers {
		if w.role != roleSpare {
			out = append(out, w)
		}
	}
	return out
}

func (wd *world) lead() *worker { return wd.workers[0] }

func (wd *world) spare() *worker {
	for _, w := range wd.workers {
		if w.role == roleSpare {
			return w
		}
	}
	return nil
}

// stop ends every process still running (SIGTERM first, so traced daemons
// flush their journals; SIGKILL to the group after the grace period),
// waits until each has been reaped, and removes the scratch directory.
// It is safe to call on a world whose processes have already exited.
func (wd *world) stop() {
	for _, w := range wd.workers {
		if !w.exited {
			_ = w.cmd.Process.Signal(syscall.SIGTERM) // already-gone is fine
		}
	}
	if !wd.until(time.Now().Add(stopGrace), wd.allExited) {
		_ = syscall.Kill(-wd.pgid, syscall.SIGKILL) // at least one member is unreaped, so the pgid is ours
		wd.until(time.Now().Add(10*time.Second), wd.allExited)
	}
	if wd.pgid != 0 {
		live.Lock()
		delete(live.pgids, wd.pgid)
		live.Unlock()
	}
	os.RemoveAll(wd.dir)
}

// tail renders the last lines of every process for an error message.
func (wd *world) tail() string {
	var b strings.Builder
	for _, w := range wd.workers {
		from := len(w.logs) - 6
		if from < 0 {
			from = 0
		}
		for _, l := range w.logs[from:] {
			fmt.Fprintf(&b, "  [%s] %s\n", w.name, l.text)
		}
	}
	return b.String()
}

var scrapeClient = &http.Client{Timeout: 3 * time.Second}

// scrape reads the worker's /metrics page (traced launches only).
func (w *worker) scrape() (scrape, error) {
	if w.obsURL == "" {
		return nil, fmt.Errorf("%s: no metrics endpoint", w.name)
	}
	resp, err := scrapeClient.Get(w.obsURL)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: scrape status %s", w.name, resp.Status)
	}
	return parseProm(resp.Body)
}
