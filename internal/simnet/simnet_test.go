package simnet

import (
	"errors"
	"fmt"
	"testing"
)

func testConfig(nodes, ppn int) Config {
	return Config{
		Nodes:              nodes,
		ProcsPerNode:       ppn,
		IntraNodeLatency:   1e-6,
		InterNodeLatency:   3e-6,
		IntraNodeBandwidth: 50e9,
		InterNodeBandwidth: 4e9,
		DetectLatency:      1e-3,
		SpawnDelay:         5,
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		ok   bool
	}{
		{"valid", func(c *Config) {}, true},
		{"zero nodes", func(c *Config) { c.Nodes = 0 }, false},
		{"zero ppn", func(c *Config) { c.ProcsPerNode = 0 }, false},
		{"zero bandwidth", func(c *Config) { c.InterNodeBandwidth = 0 }, false},
		{"negative latency", func(c *Config) { c.IntraNodeLatency = -1 }, false},
		{"negative spawn", func(c *Config) { c.SpawnDelay = -1 }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(2, 2)
			tc.mut(&cfg)
			err := cfg.Validate()
			if tc.ok && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("expected error, got nil")
			}
		})
	}
}

func TestSummitConfig(t *testing.T) {
	cfg := Summit(4)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Summit config invalid: %v", err)
	}
	if cfg.ProcsPerNode != 6 {
		t.Fatalf("Summit ProcsPerNode = %d, want 6 (GPUs per node)", cfg.ProcsPerNode)
	}
}

func TestClusterTopology(t *testing.T) {
	c := New(testConfig(3, 4))
	if got := len(c.Procs()); got != 12 {
		t.Fatalf("proc count = %d, want 12", got)
	}
	if got := len(c.Nodes()); got != 3 {
		t.Fatalf("node count = %d, want 3", got)
	}
	for _, n := range c.Nodes() {
		if got := len(c.ProcsOnNode(n)); got != 4 {
			t.Fatalf("node %d has %d procs, want 4", n, got)
		}
	}
	node, err := c.NodeOf(5)
	if err != nil {
		t.Fatal(err)
	}
	if node != 1 {
		t.Fatalf("NodeOf(5) = %d, want 1", node)
	}
	if _, err := c.NodeOf(999); err == nil {
		t.Fatal("NodeOf(unknown) should error")
	}
}

func TestSendRecvBasic(t *testing.T) {
	c := New(testConfig(1, 2))
	a, b := c.Endpoint(0), c.Endpoint(1)

	errs := RunAll(c, []ProcID{0, 1}, func(rank int, ep *Endpoint) error {
		if rank == 0 {
			return ep.Send(1, 7, []float64{1, 2, 3}, 24)
		}
		m, err := ep.Recv(0, 7)
		if err != nil {
			return err
		}
		data := m.Data.([]float64)
		if len(data) != 3 || data[2] != 3 {
			return fmt.Errorf("bad payload %v", data)
		}
		return nil
	})
	if err := FirstError(errs); err != nil {
		t.Fatal(err)
	}
	if b.Clock.Now() <= a.Clock.Now()-1e-12 {
		t.Fatalf("receiver clock %v should be >= sender-ish clock %v", b.Clock.Now(), a.Clock.Now())
	}
	if b.Clock.Now() <= 0 {
		t.Fatal("receiver clock did not advance")
	}
}

func TestRecvCostModel(t *testing.T) {
	cfg := testConfig(2, 1)
	c := New(cfg)
	const bytes = 4 << 20 // 4 MiB inter-node
	errs := RunAll(c, []ProcID{0, 1}, func(rank int, ep *Endpoint) error {
		if rank == 0 {
			return ep.Send(1, 1, nil, bytes)
		}
		_, err := ep.Recv(0, 1)
		return err
	})
	if err := FirstError(errs); err != nil {
		t.Fatal(err)
	}
	want := float64(bytes)/cfg.InterNodeBandwidth + cfg.InterNodeLatency
	got := c.Endpoint(1).Clock.Now()
	if diff := got - want; diff < -1e-12 || diff > 1e-12 {
		t.Fatalf("receiver time = %v, want %v", got, want)
	}
}

func TestTagAndSourceMatching(t *testing.T) {
	c := New(testConfig(1, 3))
	errs := RunAll(c, []ProcID{0, 1, 2}, func(rank int, ep *Endpoint) error {
		switch rank {
		case 0:
			if err := ep.Send(2, 5, "from0tag5", 8); err != nil {
				return err
			}
			return ep.Send(2, 6, "from0tag6", 8)
		case 1:
			return ep.Send(2, 5, "from1tag5", 8)
		default:
			// Recv in an order different from arrival order.
			m, err := ep.Recv(1, 5)
			if err != nil {
				return err
			}
			if m.Data.(string) != "from1tag5" {
				return fmt.Errorf("got %v want from1tag5", m.Data)
			}
			m, err = ep.Recv(0, 6)
			if err != nil {
				return err
			}
			if m.Data.(string) != "from0tag6" {
				return fmt.Errorf("got %v want from0tag6", m.Data)
			}
			m, err = ep.Recv(AnySource, 5)
			if err != nil {
				return err
			}
			if m.Data.(string) != "from0tag5" {
				return fmt.Errorf("got %v want from0tag5", m.Data)
			}
			return nil
		}
	})
	if err := FirstError(errs); err != nil {
		t.Fatal(err)
	}
}

func TestSendToDeadPeerFails(t *testing.T) {
	c := New(testConfig(1, 2))
	c.Kill(1)
	err := c.Endpoint(0).Send(1, 1, nil, 0)
	if _, ok := IsPeerFailed(err); !ok {
		t.Fatalf("Send to dead peer = %v, want PeerFailedError", err)
	}
}

func TestRecvFromDeadPeerFails(t *testing.T) {
	cfg := testConfig(1, 2)
	c := New(cfg)
	c.Kill(0)
	ep := c.Endpoint(1)
	before := ep.Clock.Now()
	_, err := ep.Recv(0, 1)
	if pid, ok := IsPeerFailed(err); !ok || pid != 0 {
		t.Fatalf("Recv from dead peer = %v, want PeerFailedError{0}", err)
	}
	if got := ep.Clock.Now() - before; got < cfg.DetectLatency {
		t.Fatalf("detection charged %v, want >= %v", got, cfg.DetectLatency)
	}
}

func TestBlockedRecvWokenByKill(t *testing.T) {
	c := New(testConfig(1, 2))
	done := make(chan error, 1)
	go func() {
		_, err := c.Endpoint(1).Recv(0, 1)
		done <- err
	}()
	c.Kill(0)
	err := <-done
	if _, ok := IsPeerFailed(err); !ok {
		t.Fatalf("blocked Recv after Kill = %v, want PeerFailedError", err)
	}
}

func TestDeadLocalProcess(t *testing.T) {
	c := New(testConfig(1, 2))
	c.Kill(0)
	ep := c.Endpoint(0)
	if err := ep.Send(1, 1, nil, 0); !errors.Is(err, ErrDead) {
		t.Fatalf("Send from dead proc = %v, want ErrDead", err)
	}
	if _, err := ep.Recv(1, 1); !errors.Is(err, ErrDead) {
		t.Fatalf("Recv on dead proc = %v, want ErrDead", err)
	}
	if err := ep.PollCtl(); !errors.Is(err, ErrDead) {
		t.Fatalf("PollCtl on dead proc = %v, want ErrDead", err)
	}
}

func TestInFlightMessageBeforeDeathIsDeliverable(t *testing.T) {
	c := New(testConfig(1, 2))
	if err := c.Endpoint(0).Send(1, 9, "last words", 8); err != nil {
		t.Fatal(err)
	}
	c.Kill(0)
	m, err := c.Endpoint(1).Recv(0, 9)
	if err != nil {
		t.Fatalf("message sent before death should deliver, got %v", err)
	}
	if m.Data.(string) != "last words" {
		t.Fatalf("payload = %v", m.Data)
	}
}

func TestCtlHandlerPeerDown(t *testing.T) {
	c := New(testConfig(1, 3))
	ep := c.Endpoint(2)
	var seen []ProcID
	ep.SetCtlHandler(func(m *Message) error {
		if m.Tag == CtlPeerDown {
			seen = append(seen, m.From)
		}
		return nil
	})
	c.Kill(0)
	c.Kill(1)
	if err := ep.PollCtl(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 || seen[0] != 0 || seen[1] != 1 {
		t.Fatalf("ctl handler saw %v, want [0 1]", seen)
	}
}

func TestCtlHandlerAbortsRecv(t *testing.T) {
	c := New(testConfig(1, 3))
	ep := c.Endpoint(2)
	abort := errors.New("revoked")
	ep.SetCtlHandler(func(m *Message) error {
		if m.Tag == CtlPeerDown && m.From == 1 {
			return abort
		}
		return nil
	})
	done := make(chan error, 1)
	go func() {
		_, err := ep.Recv(0, 1) // waiting on live proc 0
		done <- err
	}()
	c.Kill(1) // unrelated peer dies; handler decides to abort
	if err := <-done; !errors.Is(err, abort) {
		t.Fatalf("Recv aborted with %v, want handler error", err)
	}
}

// TestKillNodeOfIsOneMoment: a node failure fired by one of its processes
// stamps every death with that process's clock, not with how far each
// co-located goroutine happened to have run.
func TestKillNodeOfIsOneMoment(t *testing.T) {
	cfg := testConfig(2, 3)
	c := New(cfg)
	for p, at := range []float64{5, 1, 9} { // node 0's clocks disagree
		c.Endpoint(ProcID(p)).Clock.Set(at)
	}
	var stamps []float64
	live := c.Endpoint(3)
	live.SetCtlHandler(func(m *Message) error {
		stamps = append(stamps, m.ArriveAt)
		return nil
	})
	if err := c.KillNodeOf(1); err != nil {
		t.Fatal(err)
	}
	if err := live.PollCtl(); err != nil {
		t.Fatal(err)
	}
	if len(stamps) != 3 {
		t.Fatalf("%d death notices, want 3", len(stamps))
	}
	for _, at := range stamps {
		if at != 1+cfg.DetectLatency {
			t.Fatalf("death notices stamped %v, want all at the victim's clock 1 + %v", stamps, cfg.DetectLatency)
		}
	}
	if !c.IsNodeDead(0) || c.IsDead(3) {
		t.Fatal("node death flags wrong")
	}
}

func TestKillNode(t *testing.T) {
	c := New(testConfig(2, 3))
	if err := c.KillNodeOf(0); err != nil {
		t.Fatal(err)
	}
	for _, p := range []ProcID{0, 1, 2} {
		if !c.IsDead(p) {
			t.Fatalf("proc %d should be dead after KillNodeOf(0)", p)
		}
	}
	for _, p := range []ProcID{3, 4, 5} {
		if c.IsDead(p) {
			t.Fatalf("proc %d on node 1 should be alive", p)
		}
	}
	if !c.IsNodeDead(0) || c.IsNodeDead(1) {
		t.Fatal("node death flags wrong")
	}
	if _, err := c.Spawn(0, 0); err == nil {
		t.Fatal("Spawn on dead node should fail")
	}
	if got := len(c.DeadProcs()); got != 3 {
		t.Fatalf("DeadProcs = %d, want 3", got)
	}
}

func TestSpawn(t *testing.T) {
	cfg := testConfig(1, 1)
	c := New(cfg)
	ep, err := c.Spawn(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got := ep.Clock.Now(); got != 10+cfg.SpawnDelay {
		t.Fatalf("spawned clock = %v, want %v", got, 10+cfg.SpawnDelay)
	}
	if got := len(c.ProcsOnNode(0)); got != 2 {
		t.Fatalf("node 0 procs = %d, want 2", got)
	}
	// New proc can communicate.
	errs := RunAll(c, []ProcID{0, ep.ID()}, func(rank int, e *Endpoint) error {
		if rank == 0 {
			_, err := e.Recv(ep.ID(), 3)
			return err
		}
		return e.Send(0, 3, nil, 0)
	})
	if err := FirstError(errs); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Spawn(99, 0); err == nil {
		t.Fatal("Spawn on unknown node should fail")
	}
}

func TestSpawnIDsNeverReused(t *testing.T) {
	c := New(testConfig(1, 2))
	c.Kill(1)
	ep, err := c.Spawn(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ep.ID() == 1 {
		t.Fatal("spawned process reused a dead ProcID")
	}
}

func TestTryRecv(t *testing.T) {
	c := New(testConfig(1, 2))
	ep := c.Endpoint(1)
	m, err := ep.TryRecv(0, 4)
	if err != nil || m != nil {
		t.Fatalf("empty TryRecv = (%v, %v), want (nil, nil)", m, err)
	}
	if err := c.Endpoint(0).Send(1, 4, 42, 8); err != nil {
		t.Fatal(err)
	}
	// Message delivery is synchronous in-memory, so it is queued now.
	m, err = ep.TryRecv(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if m == nil || m.Data.(int) != 42 {
		t.Fatalf("TryRecv = %v", m)
	}
}

func TestSyncClocks(t *testing.T) {
	c := New(testConfig(1, 3))
	c.Endpoint(0).Clock.Advance(5)
	c.Endpoint(2).Clock.Advance(2)
	tm := c.SyncClocks()
	if tm != 5 {
		t.Fatalf("SyncClocks = %v, want 5", tm)
	}
	for _, id := range c.LiveProcs() {
		if got := c.Endpoint(id).Clock.Now(); got != 5 {
			t.Fatalf("proc %d clock = %v, want 5", id, got)
		}
	}
}

func TestRunAllPanicRecovery(t *testing.T) {
	c := New(testConfig(1, 1))
	errs := RunAll(c, []ProcID{0}, func(rank int, ep *Endpoint) error {
		panic("boom")
	})
	if err := FirstError(errs); err == nil {
		t.Fatal("panic should surface as error")
	}
}

func TestLiveProcsAfterFailures(t *testing.T) {
	c := New(testConfig(2, 2))
	c.Kill(2)
	live := c.LiveProcs()
	if len(live) != 3 {
		t.Fatalf("live = %v, want 3 procs", live)
	}
	for _, id := range live {
		if id == 2 {
			t.Fatal("dead proc listed as live")
		}
	}
}

func TestMessageOrderingFIFOPerPair(t *testing.T) {
	c := New(testConfig(1, 2))
	errs := RunAll(c, []ProcID{0, 1}, func(rank int, ep *Endpoint) error {
		if rank == 0 {
			for i := 0; i < 50; i++ {
				if err := ep.Send(1, 3, i, 8); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < 50; i++ {
			m, err := ep.Recv(0, 3)
			if err != nil {
				return err
			}
			if m.Data.(int) != i {
				return fmt.Errorf("out of order: got %v want %d", m.Data, i)
			}
		}
		return nil
	})
	if err := FirstError(errs); err != nil {
		t.Fatal(err)
	}
}
