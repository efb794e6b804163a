package tcpnet_test

// The loopback integration test: a rendezvous service plus four workers,
// each owning a real TCP endpoint in this one process. The world runs an
// allreduce over real sockets, one worker is killed abruptly (connection
// dropped, no leave), the heartbeat detector declares it, and the
// survivors run the ULFM revoke/agree/shrink/retry pipeline to finish the
// next allreduce over the shrunken world — the same end-to-end path a
// multi-process deployment of cmd/elasticd exercises.

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/rendezvous"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/transport/chaos"
	"repro/internal/transport/tcpnet"
	"repro/internal/ulfm"
	"repro/internal/vtime"
)

// syncBuf guards the journal: the rendezvous sweeper writes while the
// test reads.
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

// leaveTogether holds a survivor back until every survivor is done. To a
// peer still inside an operation's closing agreement, a member that
// leaves the moment its own copy returns is one more failure: the peer
// repairs again and retries over a smaller world, which is correct
// behaviour and not what these tests are about.
func leaveTogether(finished *sync.WaitGroup) {
	finished.Done()
	finished.Wait()
}

type workerResult struct {
	proc  transport.ProcID
	step0 float64 // allreduce result with the full world
	step1 float64 // allreduce result after the kill (survivors only)
	size1 int     // communicator size after recovery
	err   error
}

// tunedBackoff is runWorker's and runPipelinedWorker's dial schedule: 4
// retries from 20 ms — 300 ms in all, under their 500 ms detector — so a
// survivor that reaches the corpse first exhausts its retries and reports
// the failure locally before the verdict lands. That keeps these two
// tests quick, and it is also why they (like the chaos and clustertest
// fixtures, tuned the same way) cannot show a sender that is still
// backing off when the verdict lands, which the shipped defaults' 1.55 s
// can: TestLoopbackKillBetweenRoundsOnDefaults below runs tcpnet.Config{}.
var tunedBackoff = tcpnet.Config{
	DialRetries: 4,
	DialBackoff: 20 * time.Millisecond,
	DialTimeout: time.Second,
}

// joinWorld brings up one in-process member: a TCP endpoint, a rendezvous
// client whose verdicts feed the endpoint's MarkDead, and a resilient
// world communicator. The caller owns closing the endpoint and the
// client (Close to leave, Abandon to die).
func joinWorld(srvAddr string, cfg tcpnet.Config) (*tcpnet.Endpoint, *rendezvous.Client, *ulfm.ResilientComm, error) {
	ep, err := tcpnet.Listen("127.0.0.1:0", cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	cl, err := rendezvous.Join(srvAddr, ep.Addr(), 20*time.Second)
	if err != nil {
		ep.Close()
		return nil, nil, nil, err
	}
	ep.Start(cl.Proc(), cl.Peers())
	cl.Start(func(dead transport.ProcID) { ep.MarkDead(dead) })
	comm, err := mpi.World(mpi.Attach(ep), cl.Procs())
	if err != nil {
		cl.Abandon()
		ep.Close()
		return nil, nil, nil, err
	}
	return ep, cl, ulfm.New(comm, nil, ulfm.DefaultPolicy()), nil
}

func runWorker(srvAddr string, world int, finished *sync.WaitGroup, results chan<- workerResult) {
	var res workerResult
	defer func() { results <- res }()
	fail := func(err error) { res.err = err }

	ep, cl, r, err := joinWorld(srvAddr, tunedBackoff)
	if err != nil {
		fail(err)
		return
	}
	defer ep.Close()
	res.proc = cl.Proc()
	victim := cl.Rank() == world-1

	// Step 0: every worker contributes proc+1; full world must agree.
	data := []float64{float64(cl.Proc()) + 1}
	if err := ulfm.Allreduce(r, data, mpi.OpSum); err != nil {
		fail(err)
		return
	}
	res.step0 = data[0]

	if victim {
		// Die abruptly: drop the rendezvous connection without a leave
		// (the hub convicts on the unclean close, as for kill -9) and shut
		// the transport down. Survivors block in step 1 until the
		// declaration arrives and recovery runs.
		//lint:ignore sleepytest chaos choreography: the victim lingers so peers drain step-0 frames, then dies silently
		time.Sleep(50 * time.Millisecond)
		cl.Abandon()
		ep.Close()
		return
	}
	defer cl.Close()
	defer leaveTogether(finished)

	// Step 1: survivors contribute again; the collective first fails
	// against the dead member, repairs, and retries over the survivors.
	data = []float64{float64(cl.Proc()) + 1}
	if err := ulfm.Allreduce(r, data, mpi.OpSum); err != nil {
		fail(err)
		return
	}
	res.step1 = data[0]
	res.size1 = r.Size()
}

// runPipelinedWorker is runWorker's heavyweight sibling: the allreduces
// are chunk-pipelined over a tensor whose length is deliberately not a
// multiple of world*K, and the victim dies MID-collective — its partial
// chunks are already sitting in the survivors' receive queues (in pooled
// frame buffers) when recovery runs. The retry over the shrunken world
// must still produce the exact survivors-only sum at every element,
// proving neither stale chunks nor recycled buffers leak into it.
func runPipelinedWorker(srvAddr string, world, elems int, finished *sync.WaitGroup, results chan<- workerResult) {
	var res workerResult
	defer func() { results <- res }()
	fail := func(err error) { res.err = err }

	ep, cl, r, err := joinWorld(srvAddr, tunedBackoff)
	if err != nil {
		fail(err)
		return
	}
	defer ep.Close()
	res.proc = cl.Proc()
	victim := cl.Rank() == world-1

	// The chunk count is pinned explicitly (SPMD: the victim's doomed
	// step-1 call below must split segments identically) and chosen so
	// elems is not a multiple of world*K — the uneven-chunk case this test
	// exists to exercise.
	pipelined := mpi.AllreduceOptions{Algo: mpi.AlgoPipelinedRing, Chunks: mpi.DefaultPipelineChunks}
	// Every rank reduces out of place, as the daemon does: the
	// contribution is written once and must come back unchanged from
	// both steps, the retry after the repair included; each result lands
	// in a fresh NaN-filled buffer.
	mine := float64(cl.Proc()) + 1
	in := make([]float64, elems)
	for i := range in {
		in[i] = mine
	}
	reduce := func(step string) (float64, error) {
		out := make([]float64, elems)
		for i := range out {
			out[i] = math.NaN()
		}
		if err := ulfm.AllreduceInto(r, in, out, mpi.OpSum, pipelined); err != nil {
			return 0, err
		}
		for i := range out {
			if in[i] != mine {
				return 0, fmt.Errorf("%s input element %d = %v, want %v", step, i, in[i], mine)
			}
			if out[i] != out[0] {
				return 0, fmt.Errorf("%s element %d = %v, want %v", step, i, out[i], out[0])
			}
		}
		return out[0], nil
	}

	// Step 0 is a full-world pipelined allreduce.
	if res.step0, err = reduce("step0"); err != nil {
		fail(err)
		return
	}

	if victim {
		// Start step 1, then die mid-collective: the goroutine pushes the
		// first chunks of the reduce-scatter into the survivors' queues
		// before the endpoint drops. No leave message — the sockets
		// closing are the only word of the death.
		go func() {
			_ = mpi.AllreduceInto(r.Comm(), in, make([]float64, elems), mpi.OpSum, pipelined)
		}()
		//lint:ignore sleepytest chaos choreography: the death must land mid-collective, after the first chunks ship but before the ring completes
		time.Sleep(50 * time.Millisecond)
		cl.Abandon()
		ep.Close()
		return
	}
	defer cl.Close()
	defer leaveTogether(finished)

	// Let the victim's stale chunks land before step 1 consumes them.
	//lint:ignore sleepytest the stale chunks arrive asynchronously from a peer that is now dead; nothing observable distinguishes "all arrived" from "still in flight"
	time.Sleep(150 * time.Millisecond)

	if res.step1, err = reduce("step1"); err != nil {
		fail(err)
		return
	}
	res.size1 = r.Size()
}

// TestLoopbackPipelinedSurvivesMidCollectiveKill kills a worker while a
// chunk-pipelined allreduce is in flight and checks that the ULFM
// revoke/agree/shrink/retry pipeline completes with the exact
// survivors-only reduction on a tensor sized to exercise uneven chunks.
func TestLoopbackPipelinedSurvivesMidCollectiveKill(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	const world = 4
	const elems = 64<<10 + 7 // not a multiple of world * DefaultPipelineChunks

	var journal syncBuf
	rec := trace.New(&journal)
	srv, err := rendezvous.ListenAndServe("127.0.0.1:0", rendezvous.Config{
		World:             world,
		HeartbeatInterval: 25 * time.Millisecond,
		SuspectAfter:      200 * time.Millisecond,
		DeadAfter:         500 * time.Millisecond,
		Trace:             rec,
	})
	if err != nil {
		t.Fatalf("rendezvous: %v", err)
	}
	defer srv.Close()

	results := make(chan workerResult, world)
	var finished sync.WaitGroup
	finished.Add(world - 1)
	for i := 0; i < world; i++ {
		go runPipelinedWorker(srv.Addr(), world, elems, &finished, results)
	}

	var got []workerResult
	deadline := time.After(30 * time.Second)
	for len(got) < world {
		select {
		case r := <-results:
			got = append(got, r)
		case <-deadline:
			t.Fatalf("only %d/%d workers finished; journal:\n%s", len(got), world, journal.String())
		}
	}

	const wantStep0 = 1 + 2 + 3 + 4
	const wantStep1 = 1 + 2 + 3
	var survivors int
	for _, r := range got {
		if r.err != nil {
			t.Fatalf("worker proc %d: %v", r.proc, r.err)
		}
		if r.step0 != wantStep0 {
			t.Errorf("proc %d step0 = %v, want %v", r.proc, r.step0, wantStep0)
		}
		if r.proc == world-1 {
			continue
		}
		survivors++
		if r.step1 != wantStep1 {
			t.Errorf("proc %d step1 = %v, want %v", r.proc, r.step1, wantStep1)
		}
		if r.size1 != world-1 {
			t.Errorf("proc %d post-recovery size = %d, want %d", r.proc, r.size1, world-1)
		}
	}
	if survivors != world-1 {
		t.Fatalf("%d survivors reported, want %d", survivors, world-1)
	}
}

func TestLoopbackWorldSurvivesKill(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	const world = 4

	var journal syncBuf
	rec := trace.New(&journal)
	srv, err := rendezvous.ListenAndServe("127.0.0.1:0", rendezvous.Config{
		World:             world,
		HeartbeatInterval: 25 * time.Millisecond,
		SuspectAfter:      200 * time.Millisecond,
		DeadAfter:         500 * time.Millisecond,
		Trace:             rec,
	})
	if err != nil {
		t.Fatalf("rendezvous: %v", err)
	}
	defer srv.Close()

	results := make(chan workerResult, world)
	var finished sync.WaitGroup
	finished.Add(world - 1)
	for i := 0; i < world; i++ {
		go runWorker(srv.Addr(), world, &finished, results)
	}

	var got []workerResult
	deadline := time.After(30 * time.Second)
	for len(got) < world {
		select {
		case r := <-results:
			got = append(got, r)
		case <-deadline:
			t.Fatalf("only %d/%d workers finished; journal:\n%s", len(got), world, journal.String())
		}
	}

	const wantStep0 = 1 + 2 + 3 + 4 // contributions are proc+1, procs 0..3
	const wantStep1 = 1 + 2 + 3     // survivors are procs 0..2
	var survivors int
	for _, r := range got {
		if r.err != nil {
			t.Fatalf("worker proc %d: %v", r.proc, r.err)
		}
		if r.step0 != wantStep0 {
			t.Errorf("proc %d step0 = %v, want %v", r.proc, r.step0, wantStep0)
		}
		if r.proc == world-1 {
			continue // the victim only ran step 0
		}
		survivors++
		if r.step1 != wantStep1 {
			t.Errorf("proc %d step1 = %v, want %v", r.proc, r.step1, wantStep1)
		}
		if r.size1 != world-1 {
			t.Errorf("proc %d post-recovery size = %d, want %d", r.proc, r.size1, world-1)
		}
	}
	if survivors != world-1 {
		t.Fatalf("%d survivors reported, want %d", survivors, world-1)
	}

	// The journal must show the gather and the declaration — made on the
	// victim's closed control connection, never on a timer.
	s := journal.String()
	if n := strings.Count(s, `"member_join"`); n != world {
		t.Errorf("journal has %d member_join events, want %d:\n%s", n, world, s)
	}
	if !strings.Contains(s, `"conn_dead"`) || strings.Contains(s, `"hb_`) {
		t.Errorf("journal should declare the death as conn_dead, with no heartbeat suspicion or timeout:\n%s", s)
	}
}

// TestLoopbackKillBetweenRoundsOnDefaults is the scenario the conformance
// suites could not see: a world of four on the shipped tcpnet.Config{}
// (5 retries from 50 ms, 1.55 s of back-off in all). The victim's host is
// lost between rounds — no hook point inside a collective, its transport
// gone, its control connection silent but open (Freeze), so the hub has
// only the heartbeat timeout to go on — and the survivors enter the next
// ring allreduce before the verdict, so the victim's ring predecessor is
// redialing a closed port when the declaration lands. The
// verdict must end that wait: the last survivor holds the retried result
// within DeadAfter plus a repair's worth of slack, not at the end of the
// back-off schedule (1.55 s after the kill). The standing invariants hold
// as everywhere: uniform membership, a bit-identical retried sum, nothing
// leaked.
//
// The detector is the sibling tests' (dead after 500 ms), not a faster
// one: under -race this test's process has been measured standing still
// for 150-190 ms at a time on a busy two-core VM, which a detector that
// fast reads as everyone dying at once. The bound, 0.8 s, still sits
// well under the full back-off.
func TestLoopbackKillBetweenRoundsOnDefaults(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	const (
		world     = 4
		elems     = 128 << 10 // 1 MiB of float64, the benchmark's kill_shrink tensor
		deadAfter = 500 * time.Millisecond
	)
	ring := mpi.AllreduceOptions{Algo: mpi.AlgoRing}
	bufs0 := tcpnet.OutstandingFrameBufs()

	var journal syncBuf
	srv, err := rendezvous.ListenAndServe("127.0.0.1:0", rendezvous.Config{
		World:             world,
		HeartbeatInterval: 25 * time.Millisecond,
		SuspectAfter:      200 * time.Millisecond,
		DeadAfter:         deadAfter,
		Trace:             trace.New(&journal),
	})
	if err != nil {
		t.Fatalf("rendezvous: %v", err)
	}
	defer srv.Close()

	type result struct {
		proc   transport.ProcID
		sum    float64
		procs  []transport.ProcID
		doneAt time.Time
		err    error
	}
	var (
		round0   sync.WaitGroup        // everyone is out of round 0 before the victim dies
		killed   = make(chan struct{}) // closed by the victim once it is gone
		finished sync.WaitGroup        // nobody leaves while a peer is still inside round 1
		killedAt time.Time             // written before close(killed)
		victimCl *rendezvous.Client    // likewise; frozen, so it outlives its goroutine
		results  = make(chan result, world)
	)
	round0.Add(world)
	finished.Add(world - 1)
	for i := 0; i < world; i++ {
		go func() {
			var res result
			defer func() { results <- res }()
			ep, cl, r, err := joinWorld(srv.Addr(), tcpnet.Config{})
			if err != nil {
				res.err = err
				return
			}
			defer ep.Close()
			res.proc = cl.Proc()
			allreduce := func() (float64, error) {
				data := make([]float64, elems)
				for i := range data {
					data[i] = float64(cl.Proc()) + 1
				}
				if err := ulfm.AllreduceOpts(r, data, mpi.OpSum, ring); err != nil {
					return 0, err
				}
				for i, v := range data {
					if v != data[0] {
						return 0, fmt.Errorf("element %d = %v, element 0 = %v", i, v, data[0])
					}
				}
				return data[0], nil
			}

			_, res.err = allreduce()
			round0.Done()
			if res.err != nil {
				return
			}
			round0.Wait()
			if cl.Rank() == world-1 {
				// Host loss between rounds: no leave, listener and data
				// connections gone, control connection silent.
				killedAt = time.Now()
				victimCl = cl
				cl.Freeze()
				ep.Close()
				close(killed)
				return
			}
			defer cl.Close()
			<-killed
			res.sum, res.err = allreduce()
			res.doneAt = time.Now()
			res.procs = chaos.SortedProcs(r.Comm().Procs())
			leaveTogether(&finished)
		}()
	}

	var survivors []result
	deadline := time.After(30 * time.Second)
	for n := 0; n < world; n++ {
		select {
		case res := <-results:
			if res.err != nil {
				t.Fatalf("proc %d: %v", res.proc, res.err)
			}
			if res.proc != world-1 {
				survivors = append(survivors, res)
			}
		case <-deadline:
			t.Fatalf("only %d/%d workers finished; journal:\n%s", n, world, journal.String())
		}
	}
	if len(survivors) != world-1 {
		t.Fatalf("%d survivors reported, want %d", len(survivors), world-1)
	}
	var last time.Time
	for _, res := range survivors {
		if want := float64(1 + 2 + 3); res.sum != want {
			t.Errorf("proc %d: retried sum = %v, want bit-exact %v", res.proc, res.sum, want)
		}
		if fmt.Sprint(res.procs) != "[0 1 2]" {
			t.Errorf("proc %d: membership after repair = %v, want [0 1 2]", res.proc, res.procs)
		}
		if res.doneAt.After(last) {
			last = res.doneAt
		}
	}
	if d := last.Sub(killedAt); d > deadAfter+300*time.Millisecond {
		t.Errorf("kill to the last survivor's result took %v, want < %v: a wait on the send path outlived the verdict",
			d, deadAfter+300*time.Millisecond)
	}

	if s := journal.String(); !strings.Contains(s, `"hb_dead"`) || strings.Contains(s, `"conn_dead"`) {
		t.Errorf("a silent member with an open socket must be timed out, not convicted on its connection:\n%s", s)
	}
	victimCl.Abandon()
	srv.Close()
	if s := chaos.Leaked(5 * time.Second); s != "" {
		t.Errorf("goroutines leaked:\n%s", s)
	}
	if !vtime.WaitUntil(5*time.Second, func() bool { return tcpnet.OutstandingFrameBufs() <= bufs0 }) {
		t.Errorf("%d pooled frame buffers outstanding, %d before the test", tcpnet.OutstandingFrameBufs(), bufs0)
	}
}

// TestLoopbackMailboxStaysFlat is the assertion the agreement's dead
// letters walked past for twenty PRs: every leak check in the tree ran at
// exit, after Close had emptied the mailbox. A world of 4 on the shipped
// defaults runs 3 000 resilient allreduces — the benchmark's steady_8k
// step — and at steps 1 000, 2 000 and 3 000, with every worker held at a
// harness barrier so nothing is in flight, every endpoint's mailbox is
// empty: each message a step sent was consumed by that step. Goroutines
// and pooled frame buffers are back at their baseline after teardown.
func TestLoopbackMailboxStaysFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	const (
		world = 4
		steps = 3000
		every = 1000
		elems = 1 << 10
	)
	goroutines0 := runtime.NumGoroutine()
	bufs0 := tcpnet.OutstandingFrameBufs()

	srv, err := rendezvous.ListenAndServe("127.0.0.1:0", rendezvous.Config{World: world})
	if err != nil {
		t.Fatalf("rendezvous: %v", err)
	}

	cp := chaos.NewCheckpoint(world)
	errs := make(chan error, world)
	for i := 0; i < world; i++ {
		go func() {
			errs <- func() (err error) {
				defer func() {
					if err != nil {
						cp.Abort()
					}
				}()
				ep, cl, r, err := joinWorld(srv.Addr(), tcpnet.Config{})
				if err != nil {
					return err
				}
				defer ep.Close()
				defer cl.Close()
				data := make([]float64, elems)
				for step := 1; step <= steps; step++ {
					for i := range data {
						data[i] = float64(cl.Proc()) + 1
					}
					if err := ulfm.Allreduce(r, data, mpi.OpSum); err != nil {
						return fmt.Errorf("proc %d step %d: %w", cl.Proc(), step, err)
					}
					if want := float64(1 + 2 + 3 + 4); data[0] != want || data[elems-1] != want {
						return fmt.Errorf("proc %d step %d: sum %v..%v, want %v", cl.Proc(), step, data[0], data[elems-1], want)
					}
					if step%every != 0 {
						continue
					}
					if !cp.Wait() { // everyone is out of this step: nothing is in flight
						return nil
					}
					if n := ep.QueueLen(); n != 0 {
						return fmt.Errorf("proc %d: %d messages parked in the mailbox after step %d, want 0", cl.Proc(), n, step)
					}
					if v, ok := obs.Default().Value("tcpnet_mailbox_depth"); !ok || v != 0 {
						return fmt.Errorf("proc %d: tcpnet_mailbox_depth reads %v (registered: %v) after step %d, want 0", cl.Proc(), v, ok, step)
					}
					if !cp.Wait() { // nobody starts the next step before every mailbox is read
						return nil
					}
				}
				return nil
			}()
		}()
	}
	for i := 0; i < world; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Error(err)
			}
		case <-time.After(120 * time.Second):
			t.Fatalf("only %d/%d workers finished", i, world)
		}
	}
	srv.Close()

	if s := chaos.Leaked(5 * time.Second); s != "" {
		t.Errorf("goroutines leaked:\n%s", s)
	}
	vtime.WaitUntil(5*time.Second, func() bool {
		return runtime.NumGoroutine() <= goroutines0 && tcpnet.OutstandingFrameBufs() == bufs0
	})
	if n := runtime.NumGoroutine(); n > goroutines0 {
		t.Errorf("%d goroutines after teardown, %d before the world started", n, goroutines0)
	}
	if n := tcpnet.OutstandingFrameBufs(); n != bufs0 {
		t.Errorf("%d pooled frame buffers outstanding after teardown, %d before", n, bufs0)
	}
}
