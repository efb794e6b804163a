// Package clustertest boots a complete in-process elastic cluster — the
// rendezvous hub elasticd -serve hosts plus N workers, each a node.Node
// built exactly as elasticd builds one (real TCP endpoint, resilient ULFM
// communicator, and with Config.Scale the autopilot seat), all wired
// through one chaos engine — in a single call. Tests get typed handles to
// every worker, inject faults through the shared engine, and inherit
// ordered teardown plus the zero-goroutine/zero-frame-buffer leak
// assertions automatically.
//
// The shape every test takes:
//
//	c := clustertest.New(t, clustertest.Config{World: 32})
//	c.Workers[31].Die()
//	c.VerifyRecovery(31)
//
// Liveness is the hub's one failure detector: a worker that dies (Die)
// closes its control connection and is convicted on the close; a worker
// that hangs (Mute) stops heartbeating and is convicted by the sweep at
// DeadAfter. The hub's heartbeat tuning scales with the world (hubTiming),
// and teardown asserts that it convicted no live member: by timeout only
// the workers a scenario muted, by connection only the ones it killed.
package clustertest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/autopilot"
	"repro/internal/mpi"
	"repro/internal/node"
	"repro/internal/policy"
	"repro/internal/rendezvous"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/transport/chaos"
	"repro/internal/transport/tcpnet"
	"repro/internal/ulfm"
	"repro/internal/vtime"
)

// elems is the allreduce payload length, chosen so pipelined-ring chunk
// bounds come out uneven.
const elems = 1<<10 + 7

// Config parameterizes New.
type Config struct {
	// World is the number of workers to gather. Required.
	World int
	// Seed determines the chaos fault schedule (default 1).
	Seed int64
	// Name labels the chaos scenario journal (defaults to the test name).
	Name string
	// Rules are chaos rules installed before any worker starts (rules
	// that name a ProcID must instead be added after New returns, once
	// identities are assigned).
	Rules []chaos.Rule
	// Spares is the number of warm spares to pre-register after the
	// world gathers: nodes started with Spare set, full control-plane
	// members with no communicator until a Boundary admits them (see
	// RunGrow).
	Spares int
	// Scale, when non-nil, gives every worker and spare an autopilot
	// controller with this schedule (see RunGrow).
	Scale *autopilot.Config
	// Policy, when non-nil, gives every worker and spare a recovery-policy
	// engine wired as its ULFM advisor and swap gate. The harness has no
	// simnet placement, so node-level scenarios supply their own NodeOf.
	Policy *policy.Config
}

// Worker is one in-process cluster member: a node plus its gathered rank
// (-1 for a spare).
type Worker struct {
	*node.Node
	Rank int

	// Killed marks an expected death: the worker's own collectives may
	// fail without failing the test. Die, Leave, and Mute set it.
	Killed atomic.Bool
	// died and muted record how: the only convictions the hub may make
	// are by connection of a died worker and by timeout of a muted one.
	died, muted atomic.Bool

	// admitted is set once a spare has entered (RunGrow).
	admitted atomic.Bool
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
	hub rendezvous.Config
	// journal is the hub's membership journal, read once the hub has
	// closed.
	journal bytes.Buffer
}

// hubTiming is the hub's heartbeat tuning at a world size: a 100 ms
// heartbeat up to world 32, stretched in proportion beyond it (every
// worker, and the hub, time-share the test's cores, and a heartbeat
// sender must be scheduled to be heard), with conviction after ten
// silent intervals. DetectWait is then 2.1 s at world 32, 3.2 s at 64
// and 5.4 s at 128.
func hubTiming(world int) (hb, dead time.Duration) {
	hb = 100 * time.Millisecond
	if world > 32 {
		hb = hb * time.Duration(world) / 32
	}
	return hb, 10 * hb
}

// New boots the cluster and registers ordered teardown on t: workers
// leave cleanly, the service and engine shut down, and the test fails
// if any transport/chaos/rendezvous goroutine or pooled frame buffer
// survives — or if the hub convicted a member the scenario left alive.
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

	c := &Cluster{T: t, cfg: cfg}
	c.Eng = chaos.New(chaos.Scenario{Name: cfg.Name, Seed: cfg.Seed, Rules: cfg.Rules})
	c.Eng.Install()

	hb, dead := hubTiming(cfg.World)
	c.hub = rendezvous.Config{
		World:             cfg.World,
		HeartbeatInterval: hb,
		SuspectAfter:      dead / 2,
		DeadAfter:         dead,
		Trace:             trace.New(&c.journal),
		Logf:              t.Logf,
	}
	srv, err := rendezvous.ListenAndServe("127.0.0.1:0", c.hub)
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
			w, err := c.start(false)
			if err != nil {
				errs <- err
				return
			}
			ws <- w
		}()
	}
	c.Workers = make([]*Worker, cfg.World)
	deadline := time.After(30*time.Second + time.Duration(cfg.World)*100*time.Millisecond)
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
		sp, err := c.start(true)
		if err != nil {
			t.Fatalf("clustertest: spare setup: %v", err)
		}
		c.Spares = append(c.Spares, sp)
	}
	// The seat admits from its client's view of the pool, and admitted
	// spares dial each other: every member hears of every spare first.
	heard := func() bool {
		for _, w := range c.all() {
			others := cfg.Spares
			if w.Rank < 0 {
				others-- // a spare is not in its own pool
			}
			if len(w.CL.SpareProcs()) < others {
				return false
			}
		}
		return true
	}
	if !vtime.WaitUntil(10*time.Second, heard) {
		t.Fatalf("clustertest: the spare pool never reached every member")
	}
	return c
}

// all lists the workers, then the spares: RunGrow's outcome numbering.
func (c *Cluster) all() []*Worker {
	return append(append([]*Worker(nil), c.Workers...), c.Spares...)
}

// start brings up one member through node.Start.
func (c *Cluster) start(spare bool) (*Worker, error) {
	n, err := node.Start(node.Config{
		Rendezvous: c.Srv.Addr(),
		Listen:     "127.0.0.1:0",
		Spare:      spare,
		Chaos:      c.Eng,
		Policy:     c.cfg.Policy,
		Scale:      c.cfg.Scale,
		XferRate:   64 << 20,
		Logf:       c.T.Logf,
	})
	if err != nil {
		return nil, err
	}
	return &Worker{Node: n, Rank: n.CL.Rank()}, nil
}

// Die is the kill -9 equivalent (node.Die). Safe to call from any
// goroutine, including a chaos OpKill hook.
func (w *Worker) Die() {
	w.Killed.Store(true)
	w.died.Store(true)
	w.Node.Die()
}

// Leave is the clean scale-down departure (node.Leave); the next
// collective repairs the evictee out. Call it from the worker's own
// goroutine.
func (w *Worker) Leave() {
	w.Killed.Store(true)
	w.Node.Leave()
}

// Mute models a hung process (node.Mute): survivors must recover without
// ever seeing a connection-level death.
func (w *Worker) Mute() {
	w.Killed.Store(true)
	w.muted.Store(true)
	w.Node.Mute()
}

// DetectWait is a conservative bound on hang-to-declaration latency:
// DeadAfter of silence, one sweep tick (the hub sweeps every
// min(SuspectAfter/2, HeartbeatInterval)) for the sweep to read it, plus
// scheduling slack. A killed worker is declared far sooner, on the close.
func (c *Cluster) DetectWait() time.Duration {
	tick := min(c.hub.SuspectAfter/2, c.hub.HeartbeatInterval)
	return c.hub.DeadAfter + tick + time.Second
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
// zero outstanding pooled frame buffers, and no live member convicted.
func (c *Cluster) teardown() {
	for _, w := range c.all() {
		w.Close()
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
	c.checkConvictions()
	if c.T.Failed() {
		c.T.Logf("%s", c.Eng)
	}
}

// checkConvictions reads the closed hub's journal and asserts that it
// convicted no member the scenario left alive: by timeout (hb_dead) only
// muted workers, by connection (conn_dead) only killed ones. A heartbeat
// tuning too tight for the machine shows here as a timeout conviction of
// a live worker, even when the repair absorbs it.
func (c *Cluster) checkConvictions() {
	byProc := make(map[int]*Worker)
	for _, w := range c.all() {
		byProc[int(w.Proc)] = w
	}
	dec := json.NewDecoder(&c.journal)
	for {
		var ev trace.Event
		if err := dec.Decode(&ev); err != nil {
			return
		}
		w := byProc[ev.Proc]
		switch {
		case ev.Kind == "hb_dead" && (w == nil || !w.muted.Load()):
			c.T.Errorf("clustertest: hub convicted proc %d by timeout, but the scenario never muted it", ev.Proc)
		case ev.Kind == "conn_dead" && (w == nil || !w.died.Load()):
			c.T.Errorf("clustertest: hub convicted proc %d by connection, but the scenario never killed it", ev.Proc)
		}
	}
}

// Allreduce contributes proc+1 at every element, checks the result is
// uniform, and returns the element value for cross-worker comparison.
func (w *Worker) Allreduce(algo mpi.AllreduceAlgo) (float64, error) {
	return w.AllreduceOpts(mpi.AllreduceOptions{Algo: algo})
}

// AllreduceOpts is Allreduce under explicit data-plane options, so
// scenarios can run compressed collectives. It runs the out-of-place
// path the daemon ships: the contribution stays in its own buffer, the
// result lands in a NaN-filled one, and the contribution must come back
// unchanged, retries after a repair included. The proc+1 contributions
// and their partial sums are small integers — exact in binary16 up to
// 2048 — so under CodecFP16 the uniform-result check and the exact-sum
// assertions still apply bit for bit at the world sizes tests use.
func (w *Worker) AllreduceOpts(o mpi.AllreduceOptions) (float64, error) {
	mine := float64(w.Proc) + 1
	in, out := make([]float64, elems), make([]float64, elems)
	for i := range in {
		in[i], out[i] = mine, math.NaN()
	}
	if err := ulfm.AllreduceInto(w.R, in, out, mpi.OpSum, o); err != nil {
		return 0, err
	}
	for i := range in {
		if in[i] != mine {
			return 0, fmt.Errorf("rank %d: input element %d = %v after the allreduce, want %v", w.Rank, i, in[i], mine)
		}
		if out[i] != out[0] {
			return 0, fmt.Errorf("rank %d: element %d = %v, element 0 = %v (non-uniform result)",
				w.Rank, i, out[i], out[0])
		}
	}
	return out[0], nil
}
