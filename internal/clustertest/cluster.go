// Package clustertest boots a complete in-process elastic cluster — a
// gossip-mode rendezvous service plus N workers, each with a real TCP
// transport endpoint, a SWIM gossip member, and a resilient ULFM
// communicator, all wired through one chaos engine at construction — in
// a single call. Tests get typed handles to every worker, inject faults
// through the shared engine, and inherit ordered teardown plus the
// zero-goroutine/zero-frame-buffer leak assertions automatically.
//
// The shape every test takes:
//
//	c := clustertest.New(t, clustertest.Config{World: 32})
//	c.Workers[31].Die()
//	c.VerifyRecovery(31)
//
// Liveness is pure SWIM: workers send the rendezvous service no
// heartbeats (teardown asserts the hub saw exactly zero), the first
// member to declare a death reports a verdict, and the hub republishes
// it as a versioned peer-map delta. The chaos engine's partition view
// is wired into every member's gossip drop filter, so an isolated
// worker loses its UDP side channel exactly like its collective
// traffic.
package clustertest

import (
	"fmt"
	"math/bits"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gossip"
	"repro/internal/mpi"
	"repro/internal/policy"
	"repro/internal/rendezvous"
	"repro/internal/transport"
	"repro/internal/transport/chaos"
	"repro/internal/transport/tcpnet"
	"repro/internal/ulfm"
	"repro/internal/vtime"
)

// Config parameterizes New.
type Config struct {
	// World is the number of workers to gather. Required.
	World int
	// Seed determines both the chaos fault schedule and every gossip
	// member's probe rotation (default 1).
	Seed int64
	// Name labels the chaos scenario journal (defaults to the test name).
	Name string
	// Rules are chaos rules installed before any worker starts (rules
	// that name a ProcID must instead be added after New returns, once
	// identities are assigned).
	Rules []chaos.Rule
	// Gossip overrides the detector tuning; the zero value gets
	// world-scaled defaults (see DetectorDefaults).
	Gossip gossip.Config
	// Elems is the allreduce payload length (default 1<<10+7, chosen so
	// pipelined-ring chunk bounds come out uneven).
	Elems int
	// Spares is the number of warm spares to pre-register after the
	// world gathers: full control-plane members (rendezvous rank -1,
	// gossip, chaos-wrapped TCP endpoint) with no communicator, idle
	// until an autopilot Pilot swaps them in (see grow.go).
	Spares int
	// JoinTimeout bounds each worker's rendezvous gather (default
	// scales with World).
	JoinTimeout time.Duration
	// Policy, when non-nil, gives every worker a recovery-policy engine
	// wired as its ULFM advisor (see policy.go).
	Policy *PolicyConfig
}

// DetectorDefaults is the world-scaled gossip tuning New applies when
// Config.Gossip is zero. Two windows scale: the protocol period grows
// quadratically with world size beyond 32 — a probe ack needs both
// prober and target scheduled, and on a loaded host each scheduling
// latency grows with the number of runnable worker goroutines, so the
// round-trip degrades as roughly world² when the whole cluster
// time-shares one core — and the suspicion window must outlive two
// one-way epidemic latencies (accusation out, refutation back), each
// O(log n) periods. Together these keep false deaths rare even at
// world 128 on a one-core CI box (the hub's doubt probe catches the
// stragglers).
func DetectorDefaults(world int) gossip.Config {
	period := 50 * time.Millisecond
	if world > 32 {
		period = time.Duration(world*world) * 50 / (32 * 32) * time.Millisecond
	}
	logn := bits.Len(uint(world))
	return gossip.Config{
		Period:           period,
		ProbeTimeout:     period / 2,
		SuspicionTimeout: time.Duration(2*logn+6) * period,
		IndirectK:        3,
	}
}

// Worker is one in-process cluster member.
type Worker struct {
	Rank int
	Proc transport.ProcID
	EP   *tcpnet.Endpoint
	CL   *rendezvous.Client
	G    *gossip.Runtime
	R    *ulfm.ResilientComm
	// Pol is the worker's recovery-policy engine (nil unless
	// Config.Policy was set).
	Pol *policy.Engine

	// Killed marks an expected death: the worker's own collectives may
	// fail without failing the test. Die, Leave, and Mute set it.
	Killed atomic.Bool

	// admit wakes an idle spare when a Pilot swaps it in; the value is
	// the epoch boundary (round index) it enters at. Buffered so the
	// admitting rank never blocks on a spare that died first.
	admit chan int64

	c *Cluster
}

// Cluster owns the shared pieces: the chaos engine, the rendezvous
// service, and the gathered workers indexed by rank.
type Cluster struct {
	T       testing.TB
	Eng     *chaos.Engine
	Srv     *rendezvous.Server
	Workers []*Worker
	// Spares are the warm pool, in registration (= ascending ProcID)
	// order. They share the workers' teardown and leak assertions.
	Spares []*Worker

	cfg Config
}

// New boots the cluster and registers ordered teardown on t: workers
// leave cleanly, the service and engine shut down, and the test fails
// if any transport/chaos/rendezvous/gossip goroutine or pooled frame
// buffer survives — or if the hub saw even one heartbeat.
func New(t testing.TB, cfg Config) *Cluster {
	t.Helper()
	if cfg.World <= 0 {
		t.Fatalf("clustertest: Config.World must be positive")
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Name == "" {
		cfg.Name = t.Name()
	}
	if cfg.Elems == 0 {
		cfg.Elems = 1<<10 + 7
	}
	if cfg.Gossip == (gossip.Config{}) {
		cfg.Gossip = DetectorDefaults(cfg.World)
	}
	cfg.Gossip.Seed = cfg.Seed
	if cfg.JoinTimeout == 0 {
		cfg.JoinTimeout = 20*time.Second + time.Duration(cfg.World)*100*time.Millisecond
	}

	c := &Cluster{T: t, cfg: cfg}
	c.Eng = chaos.New(chaos.Scenario{Name: cfg.Name, Seed: cfg.Seed, Rules: cfg.Rules})
	c.Eng.Install()

	srv, err := rendezvous.ListenAndServe("127.0.0.1:0", rendezvous.Config{
		World:  cfg.World,
		Gossip: true,
		Logf:   t.Logf,
		// Answering a doubt takes one scheduling of the accused's reader
		// goroutine, so the grace scales with the runnable backlog. Real
		// deaths never wait on it (a dropped conn convicts instantly).
		DoubtGrace: time.Duration(cfg.World) * 100 * time.Millisecond,
	})
	if err != nil {
		c.Eng.Uninstall()
		t.Fatalf("clustertest: rendezvous: %v", err)
	}
	c.Srv = srv
	t.Cleanup(c.teardown)

	ws := make(chan *Worker, cfg.World)
	errs := make(chan error, cfg.World)
	for i := 0; i < cfg.World; i++ {
		go func() {
			w, err := c.startWorker(true, false)
			if err != nil {
				errs <- err
				return
			}
			ws <- w
		}()
	}
	c.Workers = make([]*Worker, cfg.World)
	deadline := time.After(cfg.JoinTimeout + 10*time.Second)
	for i := 0; i < cfg.World; i++ {
		select {
		case w := <-ws:
			c.Workers[w.Rank] = w
		case err := <-errs:
			t.Fatalf("clustertest: worker setup: %v", err)
		case <-deadline:
			t.Fatalf("clustertest: worker setup timed out gathering world %d", cfg.World)
		}
	}
	// Spares register after the world gathers, sequentially so the pool
	// order (ascending ProcID) is deterministic across seeds.
	for i := 0; i < cfg.Spares; i++ {
		sp, err := c.startWorker(false, true)
		if err != nil {
			t.Fatalf("clustertest: spare setup: %v", err)
		}
		c.Spares = append(c.Spares, sp)
	}
	return c
}

// startWorker brings up one member: the TCP endpoint (chaos-wrapped),
// the pre-bound gossip socket (its address travels in the join), the
// rendezvous gather, the SWIM member, and — for full workers — the MPI
// world plus a resilient communicator. Late joiners and spares skip
// the communicator; the scenario (or the Pilot) decides how far they
// get.
func (c *Cluster) startWorker(full, spare bool) (*Worker, error) {
	w := &Worker{c: c, admit: make(chan int64, 1)}
	// The ProcID is assigned at the welcome, after the endpoint exists;
	// the conn hook reads it through this atomic (dials happen
	// post-Start, when it is set).
	var self atomic.Int64
	self.Store(-1)
	ep, err := tcpnet.Listen("127.0.0.1:0", tcpnet.Config{
		DialRetries: 4,
		DialBackoff: 20 * time.Millisecond,
		DialTimeout: time.Second,
		WrapConn: func(conn net.Conn, dialed bool) net.Conn {
			return c.Eng.WrapConn(transport.ProcID(self.Load()))(conn, dialed)
		},
	})
	if err != nil {
		return nil, err
	}
	// The gossip socket binds before the join so its resolved address
	// can be announced in the welcome exchange.
	uconn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		ep.Close()
		return nil, err
	}
	cl, err := rendezvous.JoinWith(c.Srv.Addr(), rendezvous.JoinOptions{
		SelfAddr:   ep.Addr(),
		GossipAddr: uconn.LocalAddr().String(),
		Timeout:    c.cfg.JoinTimeout,
		Spare:      spare,
	})
	if err != nil {
		uconn.Close()
		ep.Close()
		return nil, err
	}
	proc := cl.Proc()
	self.Store(int64(proc))
	ep.Start(proc, cl.Peers())

	g := gossip.NewRuntimeOn(uconn, proc, gossip.RuntimeConfig{
		Node: c.cfg.Gossip,
		// The engine's partition view severs gossip exactly like data:
		// an isolated member must not stay "alive" through the UDP side
		// channel.
		Drop:    func(peer transport.ProcID) bool { return c.Eng.Partitioned(proc, peer) },
		OnEvent: w.onGossip,
	})
	w.Rank = cl.Rank()
	w.Proc = proc
	w.EP = ep
	w.CL = cl
	w.G = g

	cl.StartNotify(rendezvous.Notifications{
		// An authoritative declaration (someone's verdict, or a clean
		// leave) retires the member everywhere at once.
		OnPeerDown: func(dead transport.ProcID) {
			g.Remove(dead)
			ep.MarkDead(dead)
		},
		// A late joiner published as a delta becomes dialable and
		// probeable immediately.
		OnPeerUp: func(p transport.ProcID, addr, gaddr string) {
			ep.Start(proc, map[transport.ProcID]string{p: addr})
			if gaddr != "" {
				g.AddPeer(p, gaddr)
			}
		},
		// A registered spare joins the gossip fabric right away: its
		// death while idle (or mid-swap) must be detected and drained
		// from the pool like any member's.
		OnSpareUp: func(p transport.ProcID, addr, gaddr string) {
			ep.Start(proc, map[transport.ProcID]string{p: addr})
			if gaddr != "" {
				g.AddPeer(p, gaddr)
			}
		},
	})
	g.Bootstrap(cl.GossipPeers())

	if !full {
		return w, nil
	}
	p := mpi.Attach(c.Eng.Wrap(ep))
	comm, err := mpi.World(p, cl.Procs())
	if err != nil {
		w.Die()
		return nil, err
	}
	pol := ulfm.DefaultPolicy()
	if c.cfg.Policy != nil {
		w.Pol = c.newPolicyEngine(proc, cl.Procs())
		pol = advisedPolicy(w.Pol)
	}
	w.R = ulfm.New(comm, nil, pol)
	return w, nil
}

// NewJoiner admits a late member: endpoint, gossip, rendezvous join
// (published to the gathered world as a peerup delta) — but no
// communicator. The caller grows the survivors' communicators.
func (c *Cluster) NewJoiner() (*Worker, error) {
	return c.startWorker(false, false)
}

// onGossip is every worker's SWIM event hook: a local death declaration
// is reported to the hub — if this member can still see a majority of
// the known world — and applied only when the hub republishes it as a
// peerdown delta. Serializing MarkDead through the hub gives every
// member the same death order, so ULFM repairs never run against
// diverging membership views; the quorum gate keeps a partitioned
// minority from declaring the majority dead through its
// (un-partitioned) rendezvous connection.
func (w *Worker) onGossip(ev gossip.Event) {
	if ev.Kind != gossip.EvDead {
		return
	}
	alive := len(w.G.Alive()) + 1 // self
	if known := len(w.CL.Peers()); alive*2 > known {
		w.CL.ReportDead(ev.Proc)
	}
}

// Die is the kill -9 equivalent: the rendezvous connection drops
// without a leave, the gossip member goes silent, and the transport
// shuts down. Only the survivors' detectors reveal the death. Safe to
// call from any goroutine, including a chaos OpKill hook.
func (w *Worker) Die() {
	w.Killed.Store(true)
	w.CL.Abandon()
	w.G.Close()
	w.EP.Close()
}

// Leave is the clean scale-down departure: the agreement hand-off (a
// member that returned from an agreement early may be the only one
// holding its decision — see mpi.Proc.Leave), a rendezvous leave (the hub
// broadcasts the peerdown immediately, so survivors MarkDead without
// waiting out a detection window), then gossip and transport shutdown.
// The next collective repairs the evictee out. Call it from the worker's
// own goroutine.
func (w *Worker) Leave() {
	w.Killed.Store(true)
	if w.R != nil {
		w.R.Comm().Proc().Leave()
	}
	w.CL.Close()
	w.G.Close()
	w.EP.Close()
}

// Mute models a hung process: control-plane silence (no rendezvous, no
// gossip acks) while the TCP endpoint stays open, so survivors must
// recover without ever seeing a connection-level death.
func (w *Worker) Mute() {
	w.Killed.Store(true)
	w.CL.Abandon()
	w.G.Close()
}

// DetectWait is a conservative bound on kill-to-declaration latency:
// a few protocol periods for some survivor to rotate onto the victim,
// the probe round, the suspicion window, plus scheduling slack.
func (c *Cluster) DetectWait() time.Duration {
	g := c.cfg.Gossip
	return 5*g.Period + g.ProbeTimeout + g.SuspicionTimeout + time.Second
}

// Procs returns the gathered ProcIDs indexed by rank.
func (c *Cluster) Procs() []transport.ProcID {
	out := make([]transport.ProcID, len(c.Workers))
	for i, w := range c.Workers {
		out[i] = w.Proc
	}
	return out
}

// ProcsOfRanks maps ranks to their ProcIDs.
func (c *Cluster) ProcsOfRanks(ranks ...int) []transport.ProcID {
	out := make([]transport.ProcID, 0, len(ranks))
	for _, r := range ranks {
		out = append(out, c.Workers[r].Proc)
	}
	return out
}

// ProcsExcept returns the gathered ProcIDs minus the given ranks.
func (c *Cluster) ProcsExcept(deadRanks ...int) []transport.ProcID {
	dead := make(map[int]bool, len(deadRanks))
	for _, r := range deadRanks {
		dead[r] = true
	}
	out := make([]transport.ProcID, 0, len(c.Workers))
	for i, w := range c.Workers {
		if !dead[i] {
			out = append(out, w.Proc)
		}
	}
	return out
}

// teardown closes every worker (clean leaves), the service, and the
// engine, then asserts the cluster invariants: zero leaked goroutines,
// zero outstanding pooled frame buffers, and zero heartbeats ever seen
// by the hub (liveness must have been SWIM's job alone).
func (c *Cluster) teardown() {
	hbs := c.Srv.HBSeen()
	for _, w := range append(append([]*Worker(nil), c.Workers...), c.Spares...) {
		w.CL.Close()
		w.G.Close()
		w.EP.Close()
	}
	c.Srv.Close()
	c.Eng.Quiesce()
	c.Eng.Uninstall()
	if s := chaos.Leaked(5 * time.Second); s != "" {
		c.T.Errorf("clustertest: goroutines leaked:\n%s", s)
	}
	vtime.WaitUntil(5*time.Second, func() bool { return tcpnet.OutstandingFrameBufs() == 0 })
	if n := tcpnet.OutstandingFrameBufs(); n != 0 {
		c.T.Errorf("clustertest: %d pooled frame buffers still outstanding", n)
	}
	if hbs != 0 {
		c.T.Errorf("clustertest: hub saw %d heartbeats; gossip-mode steady state must see none", hbs)
	}
	if c.T.Failed() {
		c.T.Logf("%s", c.Eng)
	}
}

// Allreduce contributes proc+1 at every element, checks the result is
// uniform, and returns the element value for cross-worker comparison.
func (w *Worker) Allreduce(algo mpi.AllreduceAlgo) (float64, error) {
	return w.AllreduceOpts(mpi.AllreduceOptions{Algo: algo})
}

// AllreduceOpts is Allreduce under explicit data-plane options, so
// scenarios can run compressed collectives. The proc+1 contributions
// and their partial sums are small integers — exact in binary16 up to
// 2048 — so under CodecFP16 the uniform-result check and the exact-sum
// assertions still apply bit for bit at the world sizes tests use.
// (CodecInt8 rounds through a float32 scale and is NOT exact; scenarios
// using it must assert within the documented error bound instead.)
func (w *Worker) AllreduceOpts(o mpi.AllreduceOptions) (float64, error) {
	data := make([]float64, w.c.cfg.Elems)
	for i := range data {
		data[i] = float64(w.Proc) + 1
	}
	if err := ulfm.AllreduceOpts(w.R, data, mpi.OpSum, o); err != nil {
		return 0, err
	}
	for i := 1; i < len(data); i++ {
		if data[i] != data[0] {
			return 0, fmt.Errorf("rank %d: element %d = %v, element 0 = %v (non-uniform result)",
				w.Rank, i, data[i], data[0])
		}
	}
	return data[0], nil
}
