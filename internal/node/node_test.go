package node_test

// The node is the worker elasticd ships and clustertest drives; these
// tests pin its assembly against the hub's detector and the grow
// boundary's whole cycle — admit, stream, enter, evict — at the smallest
// worlds.

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/autopilot"
	"repro/internal/mpi"
	"repro/internal/node"
	"repro/internal/policy"
	"repro/internal/rendezvous"
	"repro/internal/trace"
	"repro/internal/transport/chaos"
	"repro/internal/ulfm"
	"repro/internal/vtime"
)

// startAll hosts a hub with hcfg and starts world gathered nodes, then
// spares ones, all from cfg. Nodes come back in rank order, spares last;
// cleanup closes every node, then the hub.
func startAll(t *testing.T, hcfg rendezvous.Config, cfg node.Config, world, spares int) []*node.Node {
	t.Helper()
	hcfg.World = world
	srv, err := rendezvous.ListenAndServe("127.0.0.1:0", hcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cfg.Rendezvous, cfg.Listen, cfg.Logf = srv.Addr(), "127.0.0.1:0", t.Logf
	started := make(chan *node.Node, world)
	errs := make(chan error, world)
	for i := 0; i < world; i++ {
		go func() {
			n, err := node.Start(cfg)
			if err != nil {
				errs <- err
				return
			}
			started <- n
		}()
	}
	var nodes []*node.Node
	for len(nodes) < world {
		select {
		case n := <-started:
			nodes = append(nodes, n)
		case err := <-errs:
			t.Fatal(err)
		case <-time.After(30 * time.Second):
			t.Fatal("world never gathered")
		}
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].CL.Rank() < nodes[j].CL.Rank() })
	cfg.Spare = true
	for i := 0; i < spares; i++ {
		n, err := node.Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Close()
		}
	})
	if !vtime.WaitUntil(10*time.Second, func() bool { return len(nodes[0].CL.SpareProcs()) == spares }) {
		t.Fatal("the seat never heard of the spares")
	}
	return nodes
}

// each runs body on every node's own goroutine and fails on the first
// error.
func each(t *testing.T, nodes []*node.Node, body func(n *node.Node) error) {
	t.Helper()
	errs := make(chan error, len(nodes))
	for _, n := range nodes {
		go func() { errs <- body(n) }()
	}
	for range nodes {
		select {
		case err := <-errs:
			if err != nil {
				t.Error(err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("a node never finished")
		}
	}
}

// sumIs runs one allreduce of proc+1 and checks the result and size.
func sumIs(n *node.Node, want float64, size int) error {
	data := []float64{float64(n.Proc) + 1}
	if err := ulfm.Allreduce(n.R, data, mpi.OpSum); err != nil {
		return fmt.Errorf("proc %d: %w", n.Proc, err)
	}
	if data[0] != want || n.R.Size() != size {
		return fmt.Errorf("proc %d: sum %v at size %d, want %v at %d", n.Proc, data[0], n.R.Size(), want, size)
	}
	return nil
}

// A hung peer — heartbeats stopped, hub connection and endpoint still
// open — is convicted by the hub's sweep and repaired around; the hub
// journals the silence (hb_dead), not a closed connection.
func TestHeartbeatModeRepairsAroundMute(t *testing.T) {
	var journal syncBuf
	hub := rendezvous.Config{HeartbeatInterval: 100 * time.Millisecond, Trace: trace.New(&journal)}
	nodes := startAll(t, hub, node.Config{}, 3, 0)
	nodes[2].Mute()
	each(t, nodes[:2], func(n *node.Node) error { return sumIs(n, 3, 2) })
	if s := journal.String(); !strings.Contains(s, `"hb_dead"`) || strings.Contains(s, `"conn_dead"`) {
		t.Errorf("a muted node must be convicted by the sweep, not by its connection:\n%s", s)
	}
}

// syncBuf is a journal sink the hub writes while the test reads.
type syncBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestBoundaryAdmitsThenEvicts runs the grow boundary's cycle on two
// workers and a spare: a "0:+1,1:-1" schedule admits the spare at
// boundary 0 — it receives the state stamped step 0 and enters at round
// 1 — and evicts it, as the newest member, at boundary 1. A load signal
// is on (reading NaN, so it holds), so the seat's target rides the
// broadcast; the policy engine and chaos wrap are in the path.
func TestBoundaryAdmitsThenEvicts(t *testing.T) {
	cfg := node.Config{
		Chaos:  chaos.New(chaos.Scenario{Name: t.Name(), Seed: 7}),
		Policy: &policy.Config{Mode: policy.ModeShrink},
		Scale: &autopilot.Config{
			Schedule: []autopilot.ScheduleStep{{Step: 0, Delta: 1}, {Step: 1, Delta: -1}},
			Load:     func() float64 { return math.NaN() },
		},
	}
	nodes := startAll(t, rendezvous.Config{}, cfg, 2, 1)
	workers, spare := nodes[:2], nodes[2]
	state := []byte("model state at step 0")

	spareErr := make(chan error, 1)
	go func() {
		spareErr <- func() error {
			got, step, err := spare.AwaitAdmission()
			if err != nil {
				return err
			}
			if !bytes.Equal(got, state) || step != 0 {
				return fmt.Errorf("spare received %q stamped %d, want %q stamped 0", got, step, state)
			}
			if err := sumIs(spare, 6, 3); err != nil {
				return err
			}
			if evict, err := spare.Boundary(1, state); err != nil || !evict {
				return fmt.Errorf("boundary 1: evict=%v err=%v, want the newest member evicted", evict, err)
			}
			spare.Leave()
			return nil
		}()
	}()
	each(t, workers, func(n *node.Node) error {
		for round, want := range []float64{3, 6, 3} {
			if err := sumIs(n, want, map[int]int{0: 2, 1: 3, 2: 2}[round]); err != nil {
				return fmt.Errorf("round %d: %w", round, err)
			}
			if round == 2 {
				break
			}
			if evict, err := n.Boundary(round, state); err != nil || evict {
				return fmt.Errorf("boundary %d: evict=%v err=%v", round, evict, err)
			}
		}
		return nil
	})
	if err := <-spareErr; err != nil && !errors.Is(err, ulfm.ErrDropped) {
		t.Errorf("spare: %v", err)
	}
	if pool := workers[0].Ctl.Pool(); len(pool) != 0 {
		t.Errorf("seat pool %v after admitting its only spare", pool)
	}
}

// A node without a scale policy has no boundary.
func TestBoundaryWithoutScaleIsANoop(t *testing.T) {
	nodes := startAll(t, rendezvous.Config{}, node.Config{}, 1, 0)
	if evict, err := nodes[0].Boundary(0, nil); evict || err != nil || nodes[0].Ctl != nil {
		t.Fatalf("Boundary without Scale: evict=%v err=%v ctl=%v", evict, err, nodes[0].Ctl)
	}
}
