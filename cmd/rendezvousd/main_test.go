package main

// Helper-process tests: the test binary re-execs itself with
// RENDEZVOUSD_MAIN=1 and acts as a real rendezvousd, driven through its
// flags, its stdout and a signal, with real rendezvous clients joining.

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/rendezvous"
)

func TestMain(m *testing.M) {
	if os.Getenv("RENDEZVOUSD_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestServeGatherStop: with -listen 127.0.0.1:0 the daemon prints the
// address it resolved, two workers gather through it, the welcome carries
// the -hb interval, and SIGTERM stops it cleanly. The subtest keeps the
// name it had when the daemon also had a gossip mode: heartbeats, the
// mode it names, are the only detector left.
func TestServeGatherStop(t *testing.T) {
	t.Run("gossip=false", testServeGatherStop)
}

func testServeGatherStop(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-listen", "127.0.0.1:0", "-world", "2", "-hb", "1s")
	cmd.Env = append(os.Environ(), "RENDEZVOUSD_MAIN=1")
	var logs bytes.Buffer
	cmd.Stderr = &logs
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// The listening line is the only stdout; once it is read, Wait
	// may own the pipe.
	sc := bufio.NewScanner(stdout)
	sc.Scan()
	line := sc.Text()
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	defer func() {
		cmd.Process.Kill()
		<-exited
	}()
	_, rest, ok := strings.Cut(line, "rendezvousd: listening on ")
	addr, _, _ := strings.Cut(rest, ",")
	if !ok || strings.HasSuffix(addr, ":0") || !strings.HasSuffix(line, "gathering 2 workers") {
		t.Fatalf("listening line %q does not name the resolved address", line)
	}

	joined := make(chan *rendezvous.Client, 2)
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			cl, err := rendezvous.JoinWith(addr, rendezvous.JoinOptions{
				SelfAddr: fmt.Sprintf("127.0.0.1:%d", 1+i),
				Timeout:  10 * time.Second,
			})
			if err != nil {
				errs <- err
				return
			}
			joined <- cl
		}()
	}
	procs := map[int]bool{}
	for i := 0; i < 2; i++ {
		select {
		case cl := <-joined:
			defer cl.Close() // after the stop: the daemon must not wait for its clients
			procs[int(cl.Proc())] = true
			if cl.World() != 2 || cl.HeartbeatInterval() != time.Second {
				t.Errorf("welcome: world %d, heartbeat %v; want 2, 1s", cl.World(), cl.HeartbeatInterval())
			}
		case err := <-errs:
			t.Fatalf("join: %v", err)
		case <-time.After(10 * time.Second):
			t.Fatal("the world never gathered")
		}
	}
	if len(procs) != 2 {
		t.Errorf("two joins got procs %v, want two distinct", procs)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-exited:
		exited <- err // for the deferred reap
		if err != nil {
			t.Errorf("exit after SIGTERM: %v\n%s", err, logs.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("SIGTERM did not stop the daemon")
	}
}
