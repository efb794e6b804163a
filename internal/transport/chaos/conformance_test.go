package chaos_test

// The recovery conformance suite: an in-process loopback world (rendezvous
// service + one real TCP endpoint per worker, all chaos-wrapped) driven
// through a table of fault scenarios. After every repair the suite asserts
// the paper's invariants:
//
//   - every survivor agrees on the post-repair membership;
//   - the retried allreduce is bit-identical to a failure-free run on the
//     shrunken world (contributions are integer-valued float64s, so every
//     reduction order produces the exact sum — any deviation, including a
//     stale chunk or recycled buffer leaking in, changes the bits);
//   - no goroutine and no pooled frame buffer outlives the scenario.
//
// Reproduce a failing scenario with:
//
//	go test ./internal/transport/chaos -run 'TestChaosConformance/<name>' -chaos.seed=<N>
//
// The seed printed in the failure log (and in CI) fully determines each
// process's fault schedule.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/rendezvous"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/transport/chaos"
	"repro/internal/transport/tcpnet"
	"repro/internal/ulfm"
	"repro/internal/vtime"
)

var chaosSeed = flag.Int64("chaos.seed", 1, "seed for the chaos conformance scenarios")

const (
	hbEvery   = 25 * time.Millisecond
	hbSuspect = 100 * time.Millisecond
	hbDead    = 250 * time.Millisecond

	// elems is deliberately not a multiple of world*DefaultPipelineChunks,
	// so the pipelined ring exercises uneven chunk bounds.
	elems = 1<<10 + 7
)

// worker is one in-process member of the loopback world.
type worker struct {
	rank int
	proc transport.ProcID
	ep   *tcpnet.Endpoint
	cl   *rendezvous.Client
	r    *ulfm.ResilientComm
	eng  *chaos.Engine

	killed atomic.Bool
}

// die is the kill -9 equivalent: the rendezvous connection drops without a
// leave (the hub convicts on the unclean close) and the transport shuts
// down. Safe to call from any goroutine, including a chaos OpKill hook.
func (w *worker) die() {
	w.killed.Store(true)
	w.cl.Abandon()
	w.ep.Close()
}

// goSilent is what a partition or a hang looks like to the hub: the
// control connection stays open and says nothing more, so the only
// evidence left is the silence and the heartbeat detector has to time the
// worker out — which finish checks it did.
func (f *fixture) goSilent(w *worker) {
	w.killed.Store(true)
	w.cl.Freeze()
	f.silent.Store(int64(w.proc))
}

// allreduce contributes proc+1 at every element and checks the result is
// uniform across elements. The element value is returned for cross-worker
// comparison.
func (w *worker) allreduce(algo mpi.AllreduceAlgo) (float64, error) {
	data := make([]float64, elems)
	for i := range data {
		data[i] = float64(w.proc) + 1
	}
	// The pipelined chunk count is pinned at the static default: the kill
	// and delay rules below count chunk-point hits, so the split must not
	// shift with PipelineChunksFor's size-derived pick.
	opts := mpi.AllreduceOptions{Algo: algo}
	if algo == mpi.AlgoPipelinedRing {
		opts.Chunks = mpi.DefaultPipelineChunks
	}
	if err := ulfm.AllreduceOpts(w.r, data, mpi.OpSum, opts); err != nil {
		return 0, err
	}
	for i := 1; i < len(data); i++ {
		if data[i] != data[0] {
			return 0, fmt.Errorf("rank %d: element %d = %v, element 0 = %v (non-uniform result)",
				w.rank, i, data[i], data[0])
		}
	}
	return data[0], nil
}

// outcome is what one worker reports back to the scenario.
type outcome struct {
	rank  int
	died  bool // expected death; sums/procs not checked
	sums  []float64
	size  int
	procs []transport.ProcID // final membership, sorted
	err   error
}

// fixture owns the shared pieces of one scenario: the engine, the
// rendezvous service, and the gathered workers (indexed by rank, which the
// server assigns in join order — but worker identities are only fixed
// after the gather, so rules that name a proc are added post-setup).
type fixture struct {
	t       *testing.T
	eng     *chaos.Engine
	srv     *rendezvous.Server
	journal bytes.Buffer // the hub's membership journal; read only after srv.Close
	silent  atomic.Int64 // the proc that went silent (goSilent), -1 if none
	workers []*worker
}

func newFixture(t *testing.T, world int, sc chaos.Scenario) *fixture {
	t.Helper()
	f := &fixture{t: t, eng: chaos.New(sc)}
	f.silent.Store(-1)
	f.eng.Install()

	srv, err := rendezvous.ListenAndServe("127.0.0.1:0", rendezvous.Config{
		World:             world,
		HeartbeatInterval: hbEvery,
		SuspectAfter:      hbSuspect,
		DeadAfter:         hbDead,
		Trace:             trace.New(&f.journal),
	})
	if err != nil {
		t.Fatalf("rendezvous: %v", err)
	}
	f.srv = srv

	ws := make(chan *worker, world)
	errs := make(chan error, world)
	for i := 0; i < world; i++ {
		go func() {
			w, err := f.startWorker()
			if err != nil {
				errs <- err
				return
			}
			ws <- w
		}()
	}
	f.workers = make([]*worker, world)
	for i := 0; i < world; i++ {
		select {
		case w := <-ws:
			f.workers[w.rank] = w
		case err := <-errs:
			t.Fatalf("worker setup: %v", err)
		case <-time.After(20 * time.Second):
			t.Fatalf("worker setup timed out")
		}
	}
	return f
}

// startWorker brings up one member: TCP endpoint (chaos conn wrapping
// included), rendezvous join, heartbeats, MPI attach over the chaos
// endpoint wrapper, and a resilient world communicator.
func (f *fixture) startWorker() (*worker, error) {
	w := &worker{eng: f.eng}
	// The ProcID is assigned at the welcome, after the endpoint exists;
	// the conn hook reads it through this atomic (dials happen post-Start).
	var self atomic.Int64
	self.Store(-1)
	// 4 retries from 20 ms is 300 ms of back-off, level with the 250 ms
	// detector: a survivor redialing a corpse gives up locally about when
	// the verdict lands, so this fixture cannot show a sender still
	// backing off long after it. The shipped defaults (1.55 s) can;
	// tcpnet's own tests run on them (verdict_test.go,
	// TestLoopbackKillBetweenRoundsOnDefaults).
	ep, err := tcpnet.Listen("127.0.0.1:0", tcpnet.Config{
		DialRetries: 4,
		DialBackoff: 20 * time.Millisecond,
		DialTimeout: time.Second,
		WrapConn: func(conn net.Conn, dialed bool) net.Conn {
			return f.eng.WrapConn(transport.ProcID(self.Load()))(conn, dialed)
		},
	})
	if err != nil {
		return nil, err
	}
	cl, err := rendezvous.Join(f.srv.Addr(), ep.Addr(), 20*time.Second)
	if err != nil {
		ep.Close()
		return nil, err
	}
	self.Store(int64(cl.Proc()))
	ep.Start(cl.Proc(), cl.Peers())
	cl.Start(func(dead transport.ProcID) { ep.MarkDead(dead) })

	p := mpi.Attach(f.eng.Wrap(ep))
	comm, err := mpi.World(p, cl.Procs())
	if err != nil {
		cl.Abandon()
		ep.Close()
		return nil, err
	}
	w.rank = cl.Rank()
	w.proc = cl.Proc()
	w.ep = ep
	w.cl = cl
	w.r = ulfm.New(comm, nil, ulfm.DefaultPolicy())
	return w, nil
}

// run executes body on every worker's own goroutine and collects the
// outcomes, indexed by rank.
func (f *fixture) run(body func(w *worker) *outcome) []*outcome {
	f.t.Helper()
	outs := make([]*outcome, len(f.workers))
	results := make(chan *outcome, len(f.workers))
	for _, w := range f.workers {
		go func(w *worker) {
			o := body(w)
			o.rank = w.rank
			results <- o
		}(w)
	}
	deadline := time.After(45 * time.Second)
	for range f.workers {
		select {
		case o := <-results:
			outs[o.rank] = o
		case <-deadline:
			f.t.Fatalf("scenario timed out; fired faults so far:\n%s", f.eng)
		}
	}
	return outs
}

// finish tears the world down and asserts the leak invariants: every
// scenario must leave zero transport/chaos/rendezvous goroutines and zero
// outstanding pooled frame buffers behind.
func (f *fixture) finish() {
	f.t.Helper()
	f.eng.Quiesce() // delayed deliveries land before the mailboxes are read
	f.checkMailboxes()
	for _, w := range f.workers {
		w.cl.Close()
		w.ep.Close()
	}
	f.srv.Close()
	f.checkTimedOut()
	f.eng.Uninstall()
	if s := chaos.Leaked(5 * time.Second); s != "" {
		f.t.Errorf("goroutines leaked after scenario:\n%s", s)
	}
	vtime.WaitUntil(5*time.Second, func() bool { return tcpnet.OutstandingFrameBufs() == 0 })
	if n := tcpnet.OutstandingFrameBufs(); n != 0 {
		f.t.Errorf("%d pooled frame buffers still outstanding after scenario", n)
	}
	if f.t.Failed() {
		f.t.Logf("%s", f.eng)
	}
}

// checkTimedOut asserts how the hub came to declare a worker that went
// silent: on the silence alone — suspected first, then timed out — and
// never on its connection, which stayed open. Runs after srv.Close, when
// nothing writes the journal any more.
func (f *fixture) checkTimedOut() {
	f.t.Helper()
	proc := int(f.silent.Load())
	if proc < 0 {
		return
	}
	var kinds []string
	for _, line := range strings.Split(strings.TrimSpace(f.journal.String()), "\n") {
		var ev trace.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			f.t.Fatalf("bad journal line %q: %v", line, err)
		}
		if ev.Proc == proc && ev.Kind != "member_join" {
			kinds = append(kinds, ev.Kind)
		}
	}
	if got := fmt.Sprint(kinds); got != "[hb_suspect hb_dead]" {
		f.t.Errorf("hub's journal for silent proc %d = %s, want [hb_suspect hb_dead]", proc, got)
	}
}

// checkMailboxes asserts what no exit-time leak check can see, because
// Close empties the mailbox first: once the scenario's last collective has
// returned everywhere and each survivor has polled its control plane one
// last time, no agreement message is set aside anywhere — duplicated,
// reordered and late ones were dropped at delivery — and, unless a fault
// fired that strands data frames (see Engine.StrandsData) or a worker was
// killed, the mailbox itself is empty.
func (f *fixture) checkMailboxes() {
	f.t.Helper()
	strands := f.eng.StrandsData()
	for _, w := range f.workers {
		strands = strands || w.killed.Load()
	}
	for _, w := range f.workers {
		if w.killed.Load() {
			continue
		}
		p := w.r.Comm().Proc()
		_ = p.Poll()
		if n := p.AgreeBacklog(); n != 0 {
			f.t.Errorf("rank %d: %d agreement messages set aside after the last collective", w.rank, n)
		}
		if n := w.ep.QueueLen(); n != 0 && !strands {
			f.t.Errorf("rank %d: %d messages parked in the mailbox after the last collective", w.rank, n)
		}
	}
}

// exactSum is the bit-exact allreduce result for a membership: every
// member contributes the integer proc+1 at every element, and integer
// sums in float64 are exact under any reduction order — so this is the
// value a failure-free run over the same membership produces, bit for bit.
func exactSum(procs []transport.ProcID) float64 {
	var s float64
	for _, p := range procs {
		s += float64(p) + 1
	}
	return s
}

// checkOutcomes asserts the post-repair invariants over the scenario's
// outcomes: every non-victim completed without error, every survivor's
// final membership is exactly wantProcs (and identical across survivors),
// and the final allreduce value is bit-identical to the failure-free
// result over wantProcs.
func (f *fixture) checkOutcomes(outs []*outcome, wantProcs []transport.ProcID) {
	f.t.Helper()
	want := chaos.SortedProcs(wantProcs)
	wantSum := exactSum(want)
	survivors := 0
	for _, o := range outs {
		if o.died {
			continue
		}
		survivors++
		if o.err != nil {
			f.t.Errorf("rank %d: %v", o.rank, o.err)
			continue
		}
		if len(o.procs) != len(want) {
			f.t.Errorf("rank %d: final membership %v, want %v", o.rank, o.procs, want)
			continue
		}
		for i := range want {
			if o.procs[i] != want[i] {
				f.t.Errorf("rank %d: final membership %v, want %v", o.rank, o.procs, want)
				break
			}
		}
		if o.size != len(want) {
			f.t.Errorf("rank %d: final size %d, want %d", o.rank, o.size, len(want))
		}
		if n := len(o.sums); n > 0 && o.sums[n-1] != wantSum {
			f.t.Errorf("rank %d: final allreduce = %v, want bit-exact %v", o.rank, o.sums[n-1], wantSum)
		}
	}
	if survivors != len(want) {
		f.t.Errorf("%d survivor outcomes, want %d", survivors, len(want))
	}
}

// checkEveryRound asserts the no-membership-change invariant: every round
// of every worker produced the bit-exact full-world sum (a corruption in
// an early round must not be masked by a clean final one).
func (f *fixture) checkEveryRound(outs []*outcome, wantProcs []transport.ProcID) {
	f.t.Helper()
	wantSum := exactSum(wantProcs)
	for _, o := range outs {
		if o.died || o.err != nil {
			continue
		}
		for i, s := range o.sums {
			if s != wantSum {
				f.t.Errorf("rank %d round %d: allreduce = %v, want bit-exact %v", o.rank, i, s, wantSum)
			}
		}
	}
}

// report snapshots a worker's final state into its outcome.
func report(w *worker, sums []float64, err error) *outcome {
	o := &outcome{sums: sums, err: err}
	if err == nil {
		o.size = w.r.Size()
		o.procs = chaos.SortedProcs(w.r.Comm().Procs())
	}
	return o
}

// roundsBody is the common worker script: run the given number of
// allreduce rounds, calling onRound before each (rank-specific actions —
// dying, arming rules — live there). onRound returning false means the
// worker dies instead of running that round.
func roundsBody(algo mpi.AllreduceAlgo, rounds int, onRound func(w *worker, round int) bool) func(w *worker) *outcome {
	return func(w *worker) *outcome {
		var sums []float64
		for round := 0; round < rounds; round++ {
			if onRound != nil && !onRound(w, round) {
				return &outcome{died: true}
			}
			s, err := w.allreduce(algo)
			if err != nil {
				if w.killed.Load() {
					return &outcome{died: true}
				}
				return report(w, sums, fmt.Errorf("round %d: %w", round, err))
			}
			sums = append(sums, s)
		}
		return report(w, sums, nil)
	}
}

func procsOfRanks(f *fixture, ranks ...int) []transport.ProcID {
	out := make([]transport.ProcID, 0, len(ranks))
	for _, r := range ranks {
		out = append(out, f.workers[r].proc)
	}
	return out
}

func TestChaosConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("integration suite")
	}
	seed := *chaosSeed
	t.Logf("chaos conformance seed=%d (reproduce with -chaos.seed=%d)", seed, seed)

	// Scenario 1: a worker is killed mid-chunk inside the pipelined ring —
	// its partial chunks are already in the survivors' pooled receive
	// buffers when recovery runs. OpKill at the reduce-scatter chunk point,
	// armed only for the second round.
	t.Run("kill_mid_chunk", func(t *testing.T) {
		f := newFixture(t, 4, chaos.Scenario{Name: "kill_mid_chunk", Seed: seed})
		defer f.finish()
		victim := f.workers[3]
		f.eng.AddRule(chaos.Rule{
			Name: "killchunk", Proc: victim.proc, Point: transport.PointPipelineRSChunk,
			Nth: 5, Op: chaos.OpKill, Disabled: true,
		})
		f.eng.OnKill(victim.proc, victim.die)
		outs := f.run(roundsBody(mpi.AlgoPipelinedRing, 2, func(w *worker, round int) bool {
			if round == 1 && w.rank == 3 {
				f.eng.Enable("killchunk") // armed after the clean round, so Nth counts round-1 chunks
			}
			return true
		}))
		f.checkOutcomes(outs, procsOfRanks(f, 0, 1, 2))
	})

	// Scenario 2: node kill — two co-located workers die at once, so one
	// repair must absorb a multi-process failure event.
	t.Run("kill_node", func(t *testing.T) {
		f := newFixture(t, 4, chaos.Scenario{Name: "kill_node", Seed: seed})
		defer f.finish()
		outs := f.run(roundsBody(mpi.AlgoAuto, 2, func(w *worker, round int) bool {
			if round == 1 && (w.rank == 2 || w.rank == 3) {
				//lint:ignore sleepytest chaos choreography: the stagger lets round-0 frames drain so the kill lands mid-round-1, the case under test
				time.Sleep(50 * time.Millisecond)
				w.die()
				return false
			}
			return true
		}))
		f.checkOutcomes(outs, procsOfRanks(f, 0, 1))
	})

	// Scenario 3: network partition — the victim is isolated (its data
	// frames fail with PeerFailedError, modeling exhausted dial retries)
	// and stops heartbeating, but its endpoint stays open: survivors must
	// recover without ever seeing a TCP-level death.
	t.Run("partition", func(t *testing.T) {
		f := newFixture(t, 4, chaos.Scenario{Name: "partition", Seed: seed})
		defer f.finish()
		f.eng.AddRule(chaos.Rule{
			Name: "split", Op: chaos.OpPartition, Disabled: true,
			Groups: [][]transport.ProcID{procsOfRanks(f, 0, 1, 2), procsOfRanks(f, 3)},
		})
		outs := f.run(roundsBody(mpi.AlgoPipelinedRing, 2, func(w *worker, round int) bool {
			if round == 1 && w.rank == 3 {
				//lint:ignore sleepytest chaos choreography: stagger so the partition cuts mid-round, not between rounds
				time.Sleep(50 * time.Millisecond)
				f.eng.Enable("split")
				f.goSilent(w) // silence, not a leave and not a close: only the detector reveals the isolation
				//lint:ignore sleepytest the victim must stay silent for a full detector window; the absence of its heartbeats IS the scenario
				time.Sleep(600 * time.Millisecond)
				return false
			}
			return true
		}))
		f.checkOutcomes(outs, procsOfRanks(f, 0, 1, 2))
	})

	// Scenario 4: mid-frame connection reset — a frame is cut 9 bytes in,
	// the receiver sees a truncated body, the sender redials and resends.
	// Nobody dies; recovery must be invisible (full membership, exact sums
	// in every round): a data-plane reset is not evidence of a death, only
	// the control connection is.
	t.Run("midframe_reset", func(t *testing.T) {
		f := newFixture(t, 4, chaos.Scenario{Name: "midframe_reset", Seed: seed})
		defer f.finish()
		f.eng.AddRule(chaos.Rule{
			Name: "cut", Proc: f.workers[1].proc, Op: chaos.OpReset, Nth: 3, Times: 0, CutAfter: 9,
		})
		f.eng.AddRule(chaos.Rule{
			Name: "cut2", Proc: f.workers[2].proc, Op: chaos.OpReset, Nth: 8, Times: 0, CutAfter: 40,
		})
		outs := f.run(roundsBody(mpi.AlgoPipelinedRing, 3, nil))
		f.checkOutcomes(outs, procsOfRanks(f, 0, 1, 2, 3))
		f.checkEveryRound(outs, procsOfRanks(f, 0, 1, 2, 3))
		resets := 0
		for _, ev := range f.eng.Events() {
			if ev.Op == chaos.OpReset {
				resets++
			}
		}
		if resets == 0 {
			t.Errorf("no mid-frame reset fired; scenario did not exercise the truncation path:\n%s", f.eng)
		}
	})

	// Scenario 5: delay-induced timeout — the victim's data plane goes
	// silent (frames dropped, endpoint alive, TCP connections healthy), so
	// survivors block until the heartbeat detector times the victim out and
	// MarkDead aborts their receives.
	t.Run("stall_timeout", func(t *testing.T) {
		f := newFixture(t, 4, chaos.Scenario{Name: "stall_timeout", Seed: seed})
		defer f.finish()
		black := chaos.DataRule("blackhole", chaos.OpDrop)
		black.Proc = f.workers[3].proc
		black.Disabled = true
		f.eng.AddRule(black)
		outs := f.run(roundsBody(mpi.AlgoAuto, 2, func(w *worker, round int) bool {
			if round == 1 && w.rank == 3 {
				//lint:ignore sleepytest chaos choreography: stagger so the blackhole opens mid-round
				time.Sleep(50 * time.Millisecond)
				f.eng.Enable("blackhole")
				f.goSilent(w)
				// Attempt the round anyway: every frame this worker sends
				// vanishes, so survivors experience pure silence. Unblock it
				// by closing the endpoint once recovery has surely run.
				done := make(chan struct{})
				go func() {
					defer close(done)
					w.allreduce(mpi.AlgoAuto)
				}()
				//lint:ignore sleepytest the victim's allreduce must spin into pure silence long enough for survivors to time out and repair; there is no survivor-side state this goroutine can poll
				time.Sleep(800 * time.Millisecond)
				w.ep.Close()
				<-done
				return false
			}
			return true
		}))
		f.checkOutcomes(outs, procsOfRanks(f, 0, 1, 2))
	})

	// Scenario 6: duplicate delivery — a third of all data frames are
	// delivered twice. Recursive doubling has exactly one message per
	// (source, tag) per operation, so duplicates must be absorbed
	// harmlessly (the pipelined ring, by contrast, relies on FIFO chunk
	// streams and is documented as dup-intolerant).
	t.Run("duplicate", func(t *testing.T) {
		sc := chaos.Scenario{Name: "duplicate", Seed: seed}
		dup := chaos.DataRule("dup", chaos.OpDup)
		dup.Prob = 0.35
		sc.Rules = []chaos.Rule{dup}
		f := newFixture(t, 4, sc)
		defer f.finish()
		outs := f.run(roundsBody(mpi.AlgoRecursiveDoubling, 3, nil))
		f.checkOutcomes(outs, procsOfRanks(f, 0, 1, 2, 3))
		f.checkEveryRound(outs, procsOfRanks(f, 0, 1, 2, 3))
	})

	// Scenario 7: reordered delivery — a quarter of all data frames are
	// held back and released after the sender's next send (or at its next
	// receive), permuting cross-peer send order. Per-(source, tag) FIFO is
	// preserved, which is all recursive doubling requires.
	t.Run("reorder", func(t *testing.T) {
		sc := chaos.Scenario{Name: "reorder", Seed: seed}
		hold := chaos.DataRule("hold", chaos.OpHold)
		hold.Prob = 0.25
		sc.Rules = []chaos.Rule{hold}
		f := newFixture(t, 4, sc)
		defer f.finish()
		outs := f.run(roundsBody(mpi.AlgoRecursiveDoubling, 3, func(w *worker, round int) bool {
			// Stop capturing before the last round: a hold taken on the very
			// last message of the run would have no later send/receive to
			// release it, stranding its receiver. Earlier holds drain through
			// the final round's traffic.
			if round == 2 && w.rank == 0 {
				f.eng.Disable("hold")
			}
			return true
		}))
		f.checkOutcomes(outs, procsOfRanks(f, 0, 1, 2, 3))
	})

	// Scenario 8: kill during repair — while the survivors are repairing
	// the first death, a second worker is killed between its revoke and
	// its agreement. The repair-of-the-repair must still converge, with
	// both victims removed.
	t.Run("kill_during_repair", func(t *testing.T) {
		f := newFixture(t, 4, chaos.Scenario{Name: "kill_during_repair", Seed: seed})
		defer f.finish()
		second := f.workers[2]
		f.eng.AddRule(chaos.Rule{
			Name: "kill2", Proc: second.proc, Point: transport.PointUlfmRevoked,
			Nth: 1, Op: chaos.OpKill,
		})
		f.eng.OnKill(second.proc, second.die)
		outs := f.run(roundsBody(mpi.AlgoPipelinedRing, 2, func(w *worker, round int) bool {
			if round == 1 && w.rank == 3 {
				//lint:ignore sleepytest chaos choreography: the first death must land mid-round so the point-gated second kill fires during its repair
				time.Sleep(50 * time.Millisecond)
				w.die()
				return false
			}
			return true
		}))
		f.checkOutcomes(outs, procsOfRanks(f, 0, 1))
	})

	// Scenario 9: kill during rejoin — a late joiner is admitted through
	// rendezvous and killed at the exact moment it blocks for its join
	// message. The grown communicator therefore contains a member that was
	// never alive in it; the next collective must repair straight back to
	// the original world.
	t.Run("kill_during_rejoin", func(t *testing.T) {
		f := newFixture(t, 3, chaos.Scenario{Name: "kill_during_rejoin", Seed: seed})
		defer f.finish()

		// The joiner is brought up concurrently with the workers' round 0;
		// close(growReady) publishes its identity to all of them at once.
		var joiner *worker
		var joinerErr error
		growReady := make(chan struct{})
		var joinerWG sync.WaitGroup
		joinerWG.Add(1)
		go func() {
			defer joinerWG.Done()
			defer close(growReady)
			jw, err := f.newJoiner()
			if err != nil {
				joinerErr = err
				return
			}
			joiner = jw
			f.eng.AddRule(chaos.Rule{
				Name: "killjoin", Proc: jw.proc, Point: transport.PointJoinRecv,
				Nth: 1, Op: chaos.OpKill,
			})
			f.eng.OnKill(jw.proc, jw.die)
			joinerWG.Add(1)
			go func() {
				defer joinerWG.Done()
				p := mpi.Attach(f.eng.Wrap(jw.ep))
				if _, err := mpi.Join(p); err == nil {
					joinerErr = fmt.Errorf("joiner completed Join despite being killed at the join point")
				}
			}()
		}()

		outs := f.run(func(w *worker) *outcome {
			var sums []float64
			s, err := w.allreduce(mpi.AlgoAuto)
			if err != nil {
				return report(w, sums, fmt.Errorf("round 0: %w", err))
			}
			sums = append(sums, s)

			<-growReady
			if joiner == nil {
				return report(w, sums, fmt.Errorf("joiner setup failed"))
			}
			w.ep.Start(w.proc, map[transport.ProcID]string{joiner.proc: joiner.ep.Addr()})
			grown, err := w.r.Comm().Grow([]transport.ProcID{joiner.proc})
			if err != nil {
				return report(w, sums, fmt.Errorf("grow: %w", err))
			}
			w.r = ulfm.New(grown, nil, ulfm.DefaultPolicy())

			s, err = w.allreduce(mpi.AlgoAuto)
			if err != nil {
				return report(w, sums, fmt.Errorf("round 1: %w", err))
			}
			sums = append(sums, s)
			return report(w, sums, nil)
		})

		f.checkOutcomes(outs, procsOfRanks(f, 0, 1, 2))
		joinerWG.Wait()
		if joinerErr != nil {
			t.Errorf("joiner: %v", joinerErr)
		}
		if joiner != nil {
			if !joiner.killed.Load() {
				t.Errorf("joiner was never killed at %q", transport.PointJoinRecv)
			}
			joiner.cl.Close()
			joiner.ep.Close()
		}
	})
}

// TestPresetsLeaveNoAgreementBehind runs the three reorder-class presets
// cmd/elasticd ships (-chaos dup|reorder|delay) over twenty rounds each
// and holds them to the mailbox invariant: every agreement message the
// preset duplicated, held back or delayed was consumed or dropped at
// delivery, none parked (fixture.finish checks it). Each run must have
// faulted agreement traffic at least once, or the property was not
// exercised. Under dup, what is left in a mailbox is bounded by the data
// frames duplicated toward it: second copies the data plane never matches.
func TestPresetsLeaveNoAgreementBehind(t *testing.T) {
	if testing.Short() {
		t.Skip("integration suite")
	}
	const rounds = 20
	for _, name := range []string{"dup", "reorder", "delay"} {
		t.Run(name, func(t *testing.T) {
			sc, err := chaos.Preset(name, *chaosSeed)
			if err != nil {
				t.Fatal(err)
			}
			f := newFixture(t, 4, sc)
			defer f.finish()
			outs := f.run(roundsBody(mpi.AlgoRecursiveDoubling, rounds, func(w *worker, round int) bool {
				// As in the reorder scenario: a hold taken on the run's very
				// last message would have nothing behind it to release it.
				if round == rounds-1 && w.rank == 0 {
					f.eng.Disable(sc.Rules[0].Name)
				}
				return true
			}))
			f.checkOutcomes(outs, procsOfRanks(f, 0, 1, 2, 3))
			f.checkEveryRound(outs, procsOfRanks(f, 0, 1, 2, 3))

			agree := 0
			dataDups := map[transport.ProcID]int{}
			for _, ev := range f.eng.Events() {
				switch {
				case ev.Tag == transport.CtlAgree:
					agree++
				case ev.Op == chaos.OpDup:
					dataDups[ev.To]++
				}
			}
			if agree == 0 {
				t.Errorf("preset %q never touched an agreement message in %d rounds:\n%s", name, rounds, f.eng)
			}
			f.eng.Quiesce()
			for _, w := range f.workers {
				_ = w.r.Comm().Proc().Poll()
				if n := w.ep.QueueLen(); n > dataDups[w.proc] {
					t.Errorf("rank %d: %d messages parked, but only %d data frames were duplicated toward it",
						w.rank, n, dataDups[w.proc])
				}
			}
		})
	}
}

// newJoiner brings up a late-joining member: endpoint, late rendezvous
// join (the server welcomes it immediately once the world has gathered),
// heartbeats — but no communicator: the scenario decides how far it gets.
func (f *fixture) newJoiner() (*worker, error) {
	w := &worker{eng: f.eng}
	var self atomic.Int64
	self.Store(-1)
	ep, err := tcpnet.Listen("127.0.0.1:0", tcpnet.Config{
		DialRetries: 4,
		DialBackoff: 20 * time.Millisecond,
		DialTimeout: time.Second,
		WrapConn: func(conn net.Conn, dialed bool) net.Conn {
			return f.eng.WrapConn(transport.ProcID(self.Load()))(conn, dialed)
		},
	})
	if err != nil {
		return nil, err
	}
	cl, err := rendezvous.Join(f.srv.Addr(), ep.Addr(), 20*time.Second)
	if err != nil {
		ep.Close()
		return nil, err
	}
	self.Store(int64(cl.Proc()))
	ep.Start(cl.Proc(), cl.Peers())
	cl.Start(func(dead transport.ProcID) { ep.MarkDead(dead) })
	w.rank = cl.Rank()
	w.proc = cl.Proc()
	w.ep = ep
	w.cl = cl
	return w, nil
}
