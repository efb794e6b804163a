package main

// Exit-path tests for the worker daemon, run via the helper-process
// pattern: the test binary re-execs itself with ELASTICD_MAIN=1 and acts
// as a real elasticd. The property pinned here is that the buffered
// trace journal is flushed — every line parses as JSON — on every way
// out of the process: normal completion, a chaos-injected silent death
// (exit 3), and SIGTERM. Before the journal close was routed through
// these paths, a kill could truncate or empty the journal.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/node"
	"repro/internal/rendezvous"
	"repro/internal/trace"
)

func TestMain(m *testing.M) {
	if os.Getenv("ELASTICD_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// freePort reserves an ephemeral loopback port and releases it for the
// daemon to bind (rendezvous needs one address both served and dialed).
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("reserve port: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// elasticdCmd builds a self-exec command for a single-worker world that
// hosts its own rendezvous service.
func elasticdCmd(t *testing.T, journal string, extra ...string) *exec.Cmd {
	t.Helper()
	args := append([]string{
		"-serve", "-rendezvous", freePort(t), "-world", "1",
		"-n", "16", "-trace", journal,
	}, extra...)
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "ELASTICD_MAIN=1")
	return cmd
}

// checkJournal asserts every journal line parses as a trace.Event and
// returns the events.
func checkJournal(t *testing.T, path string) []trace.Event {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}
	defer f.Close()
	var events []trace.Event
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var ev trace.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("journal line %d unparseable (truncated flush?): %q: %v",
				len(events)+1, sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan journal: %v", err)
	}
	return events
}

func hasKind(events []trace.Event, kind string) bool {
	for _, ev := range events {
		if ev.Kind == kind {
			return true
		}
	}
	return false
}

func TestJournalFlushedOnNormalExit(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "run.jsonl")
	cmd := elasticdCmd(t, journal, "-steps", "2", "-step-interval", "10ms")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("elasticd failed: %v\n%s", err, out)
	}
	events := checkJournal(t, journal)
	if !hasKind(events, "finish") {
		t.Errorf("journal lacks a finish event; got %d events\n%s", len(events), out)
	}
}

func TestJournalFlushedOnChaosKill(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "run.jsonl")
	cmd := elasticdCmd(t, journal, "-steps", "10", "-step-interval", "10ms",
		"-chaos", "kill-at-round", "-chaos.seed", "1")
	out, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 3 {
		t.Fatalf("want chaos-kill exit code 3, got err=%v\n%s", err, out)
	}
	events := checkJournal(t, journal)
	if len(events) == 0 {
		t.Errorf("journal empty after chaos kill — OnKill path lost the flush\n%s", out)
	}
	if hasKind(events, "finish") {
		t.Errorf("killed run journaled a finish event\n%s", out)
	}
}

func TestJournalFlushedOnSigterm(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "run.jsonl")
	cmd := elasticdCmd(t, journal, "-steps", "1000", "-step-interval", "50ms")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatalf("stdout pipe: %v", err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	// Wait for the first completed step so the journal has a member_join
	// buffered, then interrupt mid-run.
	sc := bufio.NewScanner(stdout)
	stepping := false
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "step ") {
			stepping = true
			break
		}
	}
	if !stepping {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatal("worker never reached its first step")
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("signal: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 143 {
			t.Fatalf("want SIGTERM exit code 143, got %v", err)
		}
	case <-time.After(10 * time.Second):
		cmd.Process.Kill()
		t.Fatal("worker ignored SIGTERM")
	}
	events := checkJournal(t, journal)
	if len(events) == 0 {
		t.Error("journal empty after SIGTERM — signal handler lost the flush")
	}
}

// TestSpareSwapAbsorbsKill is the daemon-level elasticity demo as a
// test: a two-worker world with one warm spare and -scale-policy swap.
// One worker is chaos-killed mid-training (silent death, exit 3); the
// autopilot on the surviving rank 0 swaps the spare in at the next
// boundary, streams it the model state, and both the leader and the
// spare finish all steps — their journals must carry finish events.
func TestSpareSwapAbsorbsKill(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process integration test")
	}
	rdv := freePort(t)
	dir := t.TempDir()
	journal := func(name string) string { return filepath.Join(dir, name+".jsonl") }
	mk := func(name string, extra ...string) *exec.Cmd {
		args := append([]string{
			"-rendezvous", rdv, "-steps", "12", "-step-interval", "20ms",
			"-n", "16", "-scale-policy", "swap", "-hb", "50ms",
			"-trace", journal(name),
		}, extra...)
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "ELASTICD_MAIN=1")
		return cmd
	}
	lead := mk("lead", "-serve", "-world", "2", "-spares", "1")
	victim := mk("victim", "-chaos", "kill-at-round", "-chaos.seed", "1")
	spare := mk("spare", "-spare")

	var leadOut, victimOut, spareOut strings.Builder
	lead.Stdout, lead.Stderr = &leadOut, &leadOut
	victim.Stdout, victim.Stderr = &victimOut, &victimOut
	spare.Stdout, spare.Stderr = &spareOut, &spareOut
	if err := lead.Start(); err != nil {
		t.Fatalf("start lead: %v", err)
	}
	defer func() { lead.Process.Kill(); lead.Wait() }()
	if err := victim.Start(); err != nil {
		t.Fatalf("start victim: %v", err)
	}
	defer func() { victim.Process.Kill(); victim.Wait() }()
	if err := spare.Start(); err != nil {
		t.Fatalf("start spare: %v", err)
	}
	defer func() { spare.Process.Kill(); spare.Wait() }()

	wait := func(name string, cmd *exec.Cmd, wantExit int) {
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case err := <-done:
			code := 0
			if ee, ok := err.(*exec.ExitError); ok {
				code = ee.ExitCode()
			} else if err != nil {
				t.Fatalf("%s: wait: %v", name, err)
			}
			if code != wantExit {
				t.Fatalf("%s: exit %d, want %d\nlead:\n%s\nvictim:\n%s\nspare:\n%s",
					name, code, wantExit, leadOut.String(), victimOut.String(), spareOut.String())
			}
		case <-time.After(60 * time.Second):
			t.Fatalf("%s did not exit\nlead:\n%s\nvictim:\n%s\nspare:\n%s",
				name, leadOut.String(), victimOut.String(), spareOut.String())
		}
	}
	wait("victim", victim, 3) // chaos kill
	wait("lead", lead, 0)
	wait("spare", spare, 0)

	if !hasKind(checkJournal(t, journal("lead")), "finish") {
		t.Errorf("lead journal lacks a finish event\n%s", leadOut.String())
	}
	spareEvents := checkJournal(t, journal("spare"))
	if !hasKind(spareEvents, "finish") {
		t.Errorf("spare journal lacks a finish event\n%s", spareOut.String())
	}
	if !hasKind(spareEvents, "spare_enter") {
		t.Errorf("spare journal lacks a spare_enter event\n%s", spareOut.String())
	}
	if !strings.Contains(leadOut.String(), "admitted proc") {
		t.Errorf("lead never logged a spare admission\n%s", leadOut.String())
	}
}

// TestObsEndpointServes boots a worker with -obs.listen and scrapes it
// while it steps: /metrics must answer with a valid exposition that
// includes the transport counters this very run is driving.
func TestObsEndpointServes(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "run.jsonl")
	obsAddr := freePort(t)
	cmd := elasticdCmd(t, journal, "-steps", "40", "-step-interval", "50ms",
		"-obs.listen", obsAddr)
	if err := cmd.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()

	body, err := scrapeWhileRunning(obsAddr, 10*time.Second)
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	for _, want := range []string{
		"tcpnet_tx_frames_total",
		"rendezvous_peers{state=\"alive\"} 1",
		"trace_events_total{kind=\"member_join\"} 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape lacks %q\n%s", want, body)
		}
	}
}

// scrapeWhileRunning polls addr until /metrics answers, then returns the
// body. Raw TCP + HTTP/1.0 keeps the test free of client-side caching.
func scrapeWhileRunning(addr string, budget time.Duration) (string, error) {
	deadline := time.Now().Add(budget)
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	var lastErr error
	for range tick.C {
		if time.Now().After(deadline) {
			return "", fmt.Errorf("no scrape before deadline: %v", lastErr)
		}
		body, err := httpGet(addr, "/metrics")
		if err == nil {
			return body, nil
		}
		lastErr = err
	}
	return "", lastErr
}

func httpGet(addr, path string) (string, error) {
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return "", err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	fmt.Fprintf(conn, "GET %s HTTP/1.0\r\nHost: %s\r\n\r\n", path, addr)
	var sb strings.Builder
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	inBody := false
	status := ""
	for sc.Scan() {
		line := sc.Text()
		if status == "" {
			status = line
			continue
		}
		if !inBody {
			if line == "" {
				inBody = true
			}
			continue
		}
		sb.WriteString(line)
		sb.WriteByte('\n')
	}
	if !strings.Contains(status, " 200 ") {
		return "", fmt.Errorf("status %q", status)
	}
	return sb.String(), sc.Err()
}

// liveProc is a self-exec'd elasticd whose combined output is scanned as
// it arrives, each line stamped on arrival (elasticd's own log timestamps
// have one-second resolution).
type liveProc struct {
	cmd   *exec.Cmd
	mu    sync.Mutex
	lines []string
	at    []time.Time
}

func startLive(t *testing.T, args ...string) *liveProc {
	t.Helper()
	p := &liveProc{cmd: exec.Command(os.Args[0], args...)}
	p.cmd.Env = append(os.Environ(), "ELASTICD_MAIN=1")
	out, err := p.cmd.StdoutPipe()
	if err != nil {
		t.Fatalf("stdout pipe: %v", err)
	}
	p.cmd.Stderr = p.cmd.Stdout
	if err := p.cmd.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	scanned := make(chan struct{})
	go func() {
		defer close(scanned)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			p.mu.Lock()
			p.lines = append(p.lines, sc.Text())
			p.at = append(p.at, time.Now())
			p.mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		p.cmd.Process.Kill()
		<-scanned
		p.cmd.Wait()
	})
	return p
}

// first returns the first line containing substr and when it arrived.
func (p *liveProc) first(substr string) (string, time.Time, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, l := range p.lines {
		if strings.Contains(l, substr) {
			return l, p.at[i], true
		}
	}
	return "", time.Time{}, false
}

// waitFor polls for the first line containing substr.
func (p *liveProc) waitFor(t *testing.T, substr string, within time.Duration) (string, time.Time) {
	t.Helper()
	deadline := time.Now().Add(within)
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for range tick.C {
		if l, at, ok := p.first(substr); ok {
			return l, at
		}
		if time.Now().After(deadline) {
			break
		}
	}
	t.Fatalf("no %q within %v; output:\n%s", substr, within, p.output())
	return "", time.Time{}
}

func (p *liveProc) has(substr string) bool {
	_, _, ok := p.first(substr)
	return ok
}

func (p *liveProc) output() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.lines, "\n")
}

// joinedProc reads the ProcID out of a worker's `joined as proc P` line
// (procs are assigned in join order, not launch order).
func (p *liveProc) joinedProc(t *testing.T) int {
	t.Helper()
	const marker = "elasticd: joined as proc "
	l, _ := p.waitFor(t, marker, 20*time.Second)
	_, rest, _ := strings.Cut(l, marker)
	proc := -1
	fmt.Sscanf(rest, "%d", &proc)
	return proc
}

// liveWorld starts an elasticd world of the given size on loopback at
// -hb 1s — so anything waiting on the heartbeat detector takes 6 s — and
// returns once every worker is stepping at full size. The lead (hosting
// the rendezvous) is index 0.
func liveWorld(t *testing.T, world int, stepInterval string) []*liveProc {
	t.Helper()
	rdv := freePort(t)
	common := []string{"-rendezvous", rdv, "-steps", "1000000000", "-step-interval", stepInterval, "-n", "16"}
	ps := []*liveProc{startLive(t, append(common, "-serve", "-world", fmt.Sprint(world), "-hb", "1s")...)}
	for i := 1; i < world; i++ {
		ps = append(ps, startLive(t, common...))
	}
	for _, p := range ps {
		p.waitFor(t, fmt.Sprintf("size %d ", world), 30*time.Second)
	}
	return ps
}

// TestKillNineShrinksAtOnce is the paper's event on the shipped daemon:
// three real processes, one SIGKILLed. The hub's heartbeat detector would
// take 6 s at -hb 1s; the kernel closes the victim's control connection
// the instant it dies, and that is what the survivors shrink on.
func TestKillNineShrinksAtOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process integration test")
	}
	ps := liveWorld(t, 3, "20ms")
	lead, victim, other := ps[0], ps[2], ps[1]
	victimProc := victim.joinedProc(t)

	killedAt := time.Now()
	if err := victim.cmd.Process.Kill(); err != nil {
		t.Fatalf("kill -9: %v", err)
	}
	for _, p := range []*liveProc{lead, other} {
		_, at := p.waitFor(t, "size 2 ", 2*time.Second)
		t.Logf("survivor at size 2 %v after the kill", at.Sub(killedAt))
		if !p.has(fmt.Sprintf("elasticd: rendezvous declared proc %d down", victimProc)) {
			t.Errorf("survivor shrank without logging the declaration:\n%s", p.output())
		}
	}
	if !lead.has(fmt.Sprintf("rendezvous: proc %d declared dead (connection lost)", victimProc)) {
		t.Errorf("hub did not convict on the connection:\n%s", lead.output())
	}
	if lead.has("suspected") {
		t.Errorf("hub logged a suspicion for a closed socket:\n%s", lead.output())
	}
}

// TestGossipHubKillShrinks: a gossip-mode hub takes no heartbeats and
// convicts only a member someone accuses, so a SIGKILLed worker is found
// by the survivors' SWIM detectors — which elasticd runs because the
// welcome says gossip, with no flag. The survivors must shrink within
// one detection window of the tuning a world of three runs.
func TestGossipHubKillShrinks(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process integration test")
	}
	srv, err := rendezvous.ListenAndServe("127.0.0.1:0", rendezvous.Config{World: 3, Gossip: true, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	args := []string{"-rendezvous", srv.Addr(), "-steps", "1000000000", "-step-interval", "20ms", "-n", "16"}
	ps := []*liveProc{startLive(t, args...), startLive(t, args...), startLive(t, args...)}
	for _, p := range ps {
		p.waitFor(t, "size 3 ", 30*time.Second)
	}
	g := node.DetectorDefaults(3)
	bound := 5*g.Period + g.ProbeTimeout + g.SuspicionTimeout + time.Second
	victim := ps[2]
	victimProc := victim.joinedProc(t)

	killedAt := time.Now()
	if err := victim.cmd.Process.Kill(); err != nil {
		t.Fatalf("kill -9: %v", err)
	}
	for _, p := range ps[:2] {
		_, at := p.waitFor(t, "size 2 ", bound)
		if at.Sub(killedAt) > bound {
			t.Errorf("survivor at size 2 %v after the kill, want within %v", at.Sub(killedAt), bound)
		}
		if !p.has(fmt.Sprintf("elasticd: rendezvous declared proc %d down", victimProc)) {
			t.Errorf("survivor shrank without logging the declaration:\n%s", p.output())
		}
	}
}

// TestSigtermIsALeave: an operator's stop is announced to the survivors as
// a departure, at once, and never as a death.
func TestSigtermIsALeave(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process integration test")
	}
	ps := liveWorld(t, 2, "20ms")
	lead, leaver := ps[0], ps[1]
	leaverProc := leaver.joinedProc(t)

	if err := leaver.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("signal: %v", err)
	}
	lead.waitFor(t, fmt.Sprintf("elasticd: proc %d left", leaverProc), 2*time.Second)
	lead.waitFor(t, "size 1 ", 2*time.Second)
	if lead.has(fmt.Sprintf("declared proc %d down", leaverProc)) {
		t.Errorf("a clean stop was announced as a death:\n%s", lead.output())
	}
	if lead.has("declared dead") {
		t.Errorf("hub convicted a member that left:\n%s", lead.output())
	}
}

// TestLostHubIsLogged: the lead hosts the rendezvous; when it is killed the
// workers cannot detect failures any more (ROADMAP item 3 — nothing
// recovers from this yet), and each says so, once.
func TestLostHubIsLogged(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process integration test")
	}
	ps := liveWorld(t, 2, "20ms")
	lead, worker := ps[0], ps[1]
	if err := lead.cmd.Process.Kill(); err != nil {
		t.Fatalf("kill -9: %v", err)
	}
	worker.waitFor(t, "elasticd: lost the rendezvous hub: ", 2*time.Second)
	out := worker.output()
	if n := strings.Count(out, "lost the rendezvous hub"); n != 1 || !strings.Contains(out, "failures can no longer be detected") {
		t.Errorf("hub loss logged %d times, want once with its consequence:\n%s", n, out)
	}
}

// TestWholeJobStopShrinksNobody: a job stopped whole gets its signals a
// few milliseconds apart (here 20, far more than any scheduler's skew),
// and with departures acted on at once a member still waiting for its own
// would repair around the others and step on alone — hundreds of steps at
// -step-interval 0. The stop grace holds every departure back until the
// last signal has long landed: no worker reports a step at less than the
// full size, and everyone still exits on the signal.
func TestWholeJobStopShrinksNobody(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process integration test")
	}
	ps := liveWorld(t, 3, "0")
	for _, p := range ps[1:] {
		if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatalf("signal: %v", err)
		}
	}
	//lint:ignore sleepytest the skew between two signals of one stop is the scenario; nothing observable marks "the lead has not been signalled yet"
	time.Sleep(20 * time.Millisecond)
	if err := ps[0].cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("signal: %v", err)
	}
	for _, p := range ps {
		p.waitFor(t, "elasticd: caught terminated", 5*time.Second)
		state, err := p.cmd.Process.Wait()
		if err != nil || state.ExitCode() != 143 {
			t.Errorf("worker ended %v (%v), want exit 143 on SIGTERM", state, err)
		}
	}
	for i, p := range ps {
		p.mu.Lock()
		for _, l := range p.lines {
			if strings.HasPrefix(l, "step ") && !strings.Contains(l, " size 3 ") {
				t.Errorf("worker %d stepped on in a shrunken world during the stop: %q", i, l)
				break
			}
		}
		p.mu.Unlock()
	}
}
