package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/transport/chaos"
	"repro/internal/transport/tcpnet"
)

// flatCluster is one node of n simulated processes.
func flatCluster(n int) *simnet.Cluster {
	return simnet.New(simnet.Config{
		Nodes: 1, ProcsPerNode: n,
		IntraNodeLatency: 1e-6, InterNodeLatency: 3e-6,
		IntraNodeBandwidth: 1e9, InterNodeBandwidth: 1e9,
		DetectLatency: 1e-3,
	})
}

// countingEndpoint counts the agreement messages its process sends.
type countingEndpoint struct {
	transport.Endpoint
	sent atomic.Int64
}

func (e *countingEndpoint) Send(dst transport.ProcID, tag int, data any, bytes int64) error {
	if tag == transport.CtlAgree {
		e.sent.Add(1)
	}
	return e.Endpoint.Send(dst, tag, data, bytes)
}

// TestAgreeMessageCount pins the failure-free cost of the tree: exactly
// 2(n-1) messages per agreement in total — one contribution up and one
// decision down per non-root member — and at most fanout+1 sent by any one
// member, at worlds 4, 32 and 128 (the parent's flood sent n(n-1)). An
// 8 KiB agreed allreduce costs exactly the same messages — the data rides
// them — and counts as one allreduce and one agreement per member.
func TestAgreeMessageCount(t *testing.T) {
	const rounds = 3
	ops := map[string]func(rank int, comm *Comm) error{
		"agree": func(rank int, comm *Comm) error {
			v, err := comm.Agree(^uint32(0) &^ (1 << uint(rank%32)))
			if want := agreedMask(comm.Size()); err == nil && v != want {
				return fmt.Errorf("rank %d: agreed %#x, want %#x", rank, v, want)
			}
			return err
		},
		"allreduce-8k": func(rank int, comm *Comm) error {
			data := make([]float64, 1024)
			for i := range data {
				data[i] = float64(rank + 1)
			}
			ok, err := AllreduceAgreed(comm, data, OpSum)
			n := comm.Size()
			if want := float64(n * (n + 1) / 2); err == nil && (!ok || data[0] != want || data[len(data)-1] != want) {
				return fmt.Errorf("rank %d: agreed allreduce ok=%v sum %v, want %v", rank, ok, data[0], want)
			}
			return err
		},
	}
	for _, name := range []string{"agree", "allreduce-8k"} {
		op := ops[name]
		for _, n := range []int{4, 32, 128} {
			var before [agreeReply + 1]uint64
			for k, ctr := range obsAgreeMsgs {
				before[k] = ctr.Value()
			}
			timed, reduced := obsAgreeSeconds.Count(), obsAllreduceSeconds[AlgoAuto].Count()
			c := flatCluster(n)
			procs := c.Procs()
			eps := make([]*countingEndpoint, n)
			errs := simnet.RunAll(c, procs, func(rank int, ep *simnet.Endpoint) error {
				eps[rank] = &countingEndpoint{Endpoint: ep}
				comm, err := World(Attach(eps[rank]), procs)
				if err != nil {
					return err
				}
				for i := 0; i < rounds; i++ {
					if err := op(rank, comm); err != nil {
						return fmt.Errorf("round %d: %w", i, err)
					}
				}
				return nil
			})
			if err := simnet.FirstError(errs); err != nil {
				t.Fatalf("%s world %d: %v", name, n, err)
			}
			total := int64(0)
			for rank, ep := range eps {
				sent := ep.sent.Load()
				total += sent
				if sent > rounds*(agreeFanout+1) {
					t.Errorf("%s world %d: rank %d sent %d messages in %d operations, want <= %d each",
						name, n, rank, sent, rounds, agreeFanout+1)
				}
			}
			if want := int64(rounds * 2 * (n - 1)); total != want {
				t.Errorf("%s world %d: %d messages for %d operations, want exactly 2(n-1) = %d each",
					name, n, total, rounds, 2*(n-1))
			}
			if sent := eps[0].sent.Load(); n == 4 && sent != rounds*3 {
				t.Errorf("%s world 4: the root sent %d messages in %d operations, want 3 each", name, sent, rounds)
			}
			// The live metrics tell the same story: n-1 up, n-1 down, and not
			// one query or reply in a failure-free agreement.
			for k, want := range [...]uint64{agreeUp: rounds * uint64(n-1), agreeDown: rounds * uint64(n-1), agreeQuery: 0, agreeReply: 0} {
				if got := obsAgreeMsgs[k].Value() - before[k]; got != want {
					t.Errorf("%s world %d: mpi_agree_messages_total kind %d moved by %d, want %d", name, n, k, got, want)
				}
			}
			if got := obsAgreeSeconds.Count() - timed; got != uint64(rounds*n) {
				t.Errorf("%s world %d: mpi_agree_seconds observed %d agreements, want %d", name, n, got, rounds*n)
			}
			want := uint64(0)
			if name == "allreduce-8k" {
				want = rounds * uint64(n)
			}
			if got := obsAllreduceSeconds[AlgoAuto].Count() - reduced; got != want {
				t.Errorf("%s world %d: mpi_allreduce_seconds{algo=\"auto\"} observed %d, want %d", name, n, got, want)
			}
		}
	}
	if depth := treeDepth(128); depth > 4 {
		t.Errorf("fanout %d puts world 128 at depth %d, want <= 4", agreeFanout, depth)
	}
}

// agreedMask is the AND of every rank's ^(1 << rank%32).
func agreedMask(n int) uint32 {
	v := ^uint32(0)
	for r := 0; r < n; r++ {
		v &^= 1 << uint(r%32)
	}
	return v
}

func treeDepth(n int) int {
	depth := 0
	for r := n - 1; r > 0; r = (r - 1) / agreeFanout {
		depth++
	}
	return depth
}

// TestAgreeSeqDoesNotWrap: the parent kept 22 bits of the agreement
// sequence in the tag, so after 2^22 agreements on one communicator a tag
// repeated, matched a decision leaked 2^22 agreements earlier, and a
// participant adopted it. The sequence now travels whole, and nothing is
// left behind to match: a second batch of agreements 2^22 sequence numbers
// after the first returns its own values.
func TestAgreeSeqDoesNotWrap(t *testing.T) {
	const n, batch = 5, 8
	c := flatCluster(n)
	procs := c.Procs()
	errs := simnet.RunAll(c, procs, func(rank int, ep *simnet.Endpoint) error {
		comm, err := World(Attach(ep), procs)
		if err != nil {
			return err
		}
		run := func(bit uint) error {
			for i := 0; i < batch; i++ {
				// Every rank clears its own bit in the first batch and a
				// different one in the second, so a stale decision shows.
				v, err := comm.Agree(^uint32(0) &^ (1 << (bit + uint(rank))))
				if err != nil {
					return err
				}
				if want := ^uint32(0) &^ ((1<<n - 1) << bit); v != want {
					return fmt.Errorf("rank %d seq %d: agreed %#x, want %#x", rank, comm.agreeSeq, v, want)
				}
			}
			return nil
		}
		if err := run(0); err != nil {
			return err
		}
		comm.agreeSeq += 1<<22 - batch
		if err := run(16); err != nil {
			return err
		}
		if n := ep.QueueLen(); n != 0 {
			return fmt.Errorf("rank %d: %d messages parked in the mailbox", rank, n)
		}
		return nil
	})
	if err := simnet.FirstError(errs); err != nil {
		t.Fatal(err)
	}
}

// --- agreement by search ----------------------------------------------

// agreeSeeds is the number of fault schedules TestAgreeUniformityProperty
// plays per world size. Raise it (8 000 takes ~6 s) to search deeper when
// touching agree.go.
const agreeSeeds = 64

// agreeFault kills a rank at the nth time it hits a protocol point:
// PointAgreeContrib is "has contributed, awaits the decision";
// PointAgreeDecide's nth hit is "holds the decision and has forwarded it
// to n-1 children" (n = 1: between receiving and forwarding).
type agreeFault struct {
	rank  int
	point string
	nth   int
}

// agreeScenario is one generated fault schedule.
type agreeScenario struct {
	n       int
	seed    int64
	predead []int        // ranks dead before anyone calls Agree
	faults  []agreeFault // ranks killed inside the protocol
	leaver  int          // rank that returns, hands off, and is gone; -1 for none
	// carry plays the schedule on AllreduceAgreed instead of the plain
	// agreement, with a chaos rule duplicating agreement messages.
	carry bool
}

func (s agreeScenario) String() string {
	return fmt.Sprintf("world %d predead %v faults %+v leaver %d carry %v", s.n, s.predead, s.faults, s.leaver, s.carry)
}

// genAgreeScenario draws a schedule from the seed: up to two in-protocol
// kills (a root after k of its down-sends, an interior node between
// receiving and forwarding, a member after contributing), sometimes a rank
// dead from the start, sometimes a member that leaves after returning.
// At least one rank is left untouched.
func genAgreeScenario(n int, seed int64) agreeScenario {
	rng := rand.New(rand.NewSource(seed*131 + int64(n)))
	s := agreeScenario{n: n, seed: seed, leaver: -1}
	taken := map[int]bool{}
	pick := func() (int, bool) {
		if len(taken) >= n-1 {
			return 0, false
		}
		for {
			if r := rng.Intn(n); !taken[r] {
				taken[r] = true
				return r, true
			}
		}
	}
	if rng.Intn(4) == 0 {
		if r, ok := pick(); ok {
			s.predead = append(s.predead, r)
		}
	}
	for i, k := 0, rng.Intn(3); i < k; i++ {
		var f agreeFault
		switch rng.Intn(3) {
		case 0: // the root, after k of its down-sends
			if taken[0] || len(taken) >= n-1 {
				continue
			}
			taken[0] = true
			f = agreeFault{rank: 0, point: transport.PointAgreeDecide, nth: 1 + rng.Intn(agreeFanout+1)}
		case 1: // whoever: holds the decision, forwards none of it
			r, ok := pick()
			if !ok {
				continue
			}
			f = agreeFault{rank: r, point: transport.PointAgreeDecide, nth: 1}
		default: // whoever: contributed, never hears the decision
			r, ok := pick()
			if !ok {
				continue
			}
			f = agreeFault{rank: r, point: transport.PointAgreeContrib, nth: 1}
		}
		s.faults = append(s.faults, f)
	}
	if rng.Intn(3) == 0 {
		if r, ok := pick(); ok {
			s.leaver = r
		}
	}
	return s
}

// agreeOutcome is what one member that is still alive at the end saw.
type agreeOutcome struct {
	Flags    uint32
	Failed   []ProcID
	Unacked  bool
	OK       bool     // carry: the agreed allreduce's outcome
	Result   []uint64 // carry: the result's bits when OK
	Shrunk   []ProcID
	ShrunkID uint64
}

// carryElems is the length of every contribution in a carry scenario:
// proc+1 in each element, an odd count so a packed word is half padding.
const carryElems = 3

// runAgreeScenario plays one schedule on simnet: every live rank agrees
// (or, with s.carry, runs the agreed allreduce), the survivors shrink, and
// everybody who has returned keeps serving its control plane until the
// last one is through — so a member that has gone on is there to be
// asked, and one that has left is not. It returns the outcomes of the
// members alive at the end, by rank, and how many agreement messages the
// carry scenario's chaos rule duplicated.
func runAgreeScenario(s agreeScenario) (map[int]agreeOutcome, int, error) {
	c := flatCluster(s.n)
	procs := c.Procs()
	rankOf := map[ProcID]int{}
	for r, pr := range procs {
		rankOf[pr] = r
	}
	var eng *chaos.Engine
	if s.carry {
		dup := chaos.DataRule("dup", chaos.OpDup)
		dup.Tag, dup.Prob = transport.CtlAgree, 0.3
		eng = chaos.New(chaos.Scenario{Name: "agree-dup", Seed: s.seed, Rules: []chaos.Rule{dup}})
	}

	var hookMu sync.Mutex
	hits := map[agreeFault]int{} // keyed with nth zeroed
	transport.SetPointHook(func(proc ProcID, point string) {
		r, ok := rankOf[proc]
		if !ok {
			return
		}
		hookMu.Lock()
		key := agreeFault{rank: r, point: point}
		hits[key]++
		n := hits[key]
		hookMu.Unlock()
		for _, f := range s.faults {
			if f.rank == r && f.point == point && f.nth == n {
				c.Kill(proc)
			}
		}
	})
	defer transport.SetPointHook(nil)

	var (
		mu       sync.Mutex
		outcomes = map[int]agreeOutcome{}
		busy     atomic.Int32 // ranks that may still need an answer
	)
	busy.Store(int32(s.n))
	predead := map[int]bool{}
	for _, r := range s.predead {
		predead[r] = true
	}

	body := func(rank int, ep *simnet.Endpoint) error {
		released := false
		release := func() {
			if !released {
				released = true
				busy.Add(-1)
			}
		}
		defer release()
		var tep transport.Endpoint = ep
		if eng != nil {
			tep = eng.Wrap(ep)
		}
		p := Attach(tep)
		comm, err := World(p, procs)
		if err != nil {
			return err
		}
		if predead[rank] {
			c.Kill(ep.ID())
			return nil
		}
		var out agreeOutcome
		if s.carry {
			own := float64(ep.ID()) + 1
			data := make([]float64, carryElems)
			for i := range data {
				data[i] = own
			}
			out.OK, err = AllreduceAgreed(comm, data, OpSum)
			if err == nil && out.OK {
				for _, v := range data {
					out.Result = append(out.Result, math.Float64bits(v))
				}
			} else if err == nil && slices.ContainsFunc(data, func(v float64) bool { return v != own }) {
				return fmt.Errorf("rank %d: a failed agreed allreduce wrote %v", rank, data)
			}
		} else {
			out.Flags, out.Failed, out.Unacked, err = comm.agreeFull(^uint32(0) &^ (1 << uint(rank)))
		}
		if err != nil {
			if ep.Closed() {
				return nil // killed inside the protocol, as scheduled
			}
			return fmt.Errorf("rank %d: agree: %w", rank, err)
		}
		for _, pr := range out.Failed {
			p.noteFailure(pr)
		}
		if rank == s.leaver {
			p.Leave()
			c.Kill(ep.ID())
			return nil
		}
		shrunk, err := comm.Shrink()
		if err != nil {
			if ep.Closed() {
				return nil // a fault armed for a later hit landed in the shrink
			}
			return fmt.Errorf("rank %d: shrink: %w", rank, err)
		}
		out.Shrunk, out.ShrunkID = shrunk.Procs(), shrunk.ID()
		mu.Lock()
		outcomes[rank] = out
		mu.Unlock()
		release()
		for busy.Load() > 0 { // gone on, and still there to be asked
			if err := p.Poll(); err != nil {
				break
			}
			runtime.Gosched()
		}
		return nil
	}

	done := make(chan map[ProcID]error, 1)
	go func() { done <- simnet.RunAll(c, procs, body) }()
	select {
	case errs := <-done:
		if err := simnet.FirstError(errs); err != nil {
			return nil, 0, err
		}
	case <-time.After(30 * time.Second):
		return nil, 0, fmt.Errorf("did not terminate")
	}
	dups := 0
	if eng != nil {
		for _, ev := range eng.Events() {
			if ev.Op == chaos.OpDup {
				dups++
			}
		}
	}
	return outcomes, dups, nil
}

// TestAgreeUniformityProperty searches fault schedules instead of
// reciting them: worlds {2, 3, 5, 8, 13} x 64 seeds, each seed a schedule
// of kills at protocol moments (see genAgreeScenario). Whatever happens,
// every member still alive at the end has returned the identical (value,
// failed set, unacked bit), the follow-up Shrink has given them the
// identical membership and context id, and the run has terminated.
func TestAgreeUniformityProperty(t *testing.T) {
	searchAgreeSchedules(t, false)
}

// TestAgreedAllreduceUniformityProperty plays the same schedules on
// AllreduceAgreed, each rank contributing proc+1, with a chaos rule that
// duplicates three in ten agreement messages. Every member alive at the
// end has returned the identical (ok, result bits) and Shrink membership;
// ok means the result is the sum over the whole starting world — no
// member missing, none counted twice, a duplicated contribution included;
// a failure leaves the caller's data untouched.
func TestAgreedAllreduceUniformityProperty(t *testing.T) {
	searchAgreeSchedules(t, true)
}

func searchAgreeSchedules(t *testing.T, carry bool) {
	seeds := agreeSeeds
	if testing.Short() {
		seeds = 8
	}
	fired := map[string]int{}
	defer func() { t.Logf("schedules played: %v", fired) }()
	for _, n := range []int{2, 3, 5, 8, 13} {
		for seed := int64(1); seed <= int64(seeds); seed++ {
			s := genAgreeScenario(n, seed)
			s.carry = carry
			outs, dups, err := runAgreeScenario(s)
			if err != nil {
				t.Fatalf("seed %d (%v): %v", seed, s, err)
			}
			if carry {
				fired["dup"] += dups
			}
			if len(outs) == 0 {
				t.Fatalf("seed %d (%v): nobody survived a schedule that spares a rank", seed, s)
			}
			for _, f := range s.faults {
				fired[f.point]++
			}
			if s.leaver >= 0 {
				fired["leave"]++
			}
			if len(s.faults) == 2 {
				fired["two faults"]++
			}
			var ref *agreeOutcome
			refRank := -1
			for rank := 0; rank < n; rank++ {
				out, ok := outs[rank]
				if !ok {
					continue
				}
				if ref == nil {
					ref, refRank = &out, rank
					continue
				}
				if !reflect.DeepEqual(out, *ref) {
					t.Fatalf("seed %d (%v): rank %d returned %+v, rank %d returned %+v",
						seed, s, refRank, *ref, rank, out)
				}
			}
			for _, pr := range ref.Shrunk {
				for _, dead := range ref.Failed {
					if pr == dead {
						t.Fatalf("seed %d (%v): proc %d is in both the agreed failed set %v and the shrunken world %v",
							seed, s, pr, ref.Failed, ref.Shrunk)
					}
				}
			}
			if !carry {
				continue
			}
			if ref.OK {
				fired["ok"]++
				want := math.Float64bits(float64(n * (n + 1) / 2))
				for _, bits := range ref.Result {
					if bits != want {
						t.Fatalf("seed %d (%v): agreed result %v, want %d in every element",
							seed, s, math.Float64frombits(bits), n*(n+1)/2)
					}
				}
			}
		}
	}
	if carry && fired["dup"] == 0 {
		t.Errorf("no agreement message was duplicated in the search: the dup rule was not exercised")
	}
}

// --- fuzzing the decoder and the delivery switch ------------------------

func wordsOf(raw []byte) []int64 {
	w := make([]int64, len(raw)/8)
	for i := range w {
		w[i] = int64(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return w
}

func bytesOf(w []int64) []byte {
	raw := make([]byte, 8*len(w))
	for i, x := range w {
		binary.LittleEndian.PutUint64(raw[8*i:], uint64(x))
	}
	return raw
}

// FuzzAgreeMessage feeds arbitrary numeric payloads through the decoder
// and, when they decode, through the control handler of a rank in each of
// its three states — idle, inside that very agreement, and holding its
// decision. A payload decodes to an error or to a message that encodes
// back to itself; nothing panics, nothing aborts an operation with a
// malformed-message error, and the tree the agreement plans afterwards
// names only ranks of the communicator.
func FuzzAgreeMessage(f *testing.F) {
	// The variety is in testdata/fuzz/FuzzAgreeMessage; this one seed keeps
	// the target meaningful without it.
	seed := agreeMsg{kind: agreeUp, comm: WorldID, seq: 1, flags: 0xffff, failed: []ProcID{5}}
	f.Add(bytesOf(seed.encode()), int64(5))
	f.Fuzz(func(t *testing.T, raw []byte, from int64) {
		words := wordsOf(raw)
		m, err := decodeAgreeMsg(words)
		if err != nil {
			return
		}
		if back := m.encode(); !reflect.DeepEqual(back, words) {
			t.Fatalf("decoded %v to %+v, which encodes to %v", words, m, back)
		}

		const n, rank = 6, 1
		c := flatCluster(n)
		procs := c.Procs()
		tm := &transport.Message{From: ProcID(from), To: procs[rank], Tag: transport.CtlAgree, Data: words}

		for _, state := range []string{"idle", "inside", "carrying", "decided"} {
			p := Attach(c.Endpoint(procs[rank]))
			comm, err := World(p, procs)
			if err != nil {
				t.Fatal(err)
			}
			var a *agreement
			switch state {
			case "inside", "carrying":
				marks := make([]int, 2*n)
				a = &agreement{c: comm, seq: 1, flags: 1, gen: -1, got: marks[:n], asked: marks[n:]}
				if state == "carrying" {
					a.red, a.pay = newCarry(make([]float32, 3), OpSum), make([][]int64, n)
				}
				p.agree = a
			case "decided":
				p.agreed[WorldID] = &agreeMsg{kind: agreeDown, comm: WorldID, seq: 1, flags: 1}
			}
			if err := p.handleCtl(tm); err != nil && err != errAgreeWake {
				t.Fatalf("%s: handler returned %v for %+v", state, err, m)
			}
			if p.failed[procs[rank]] {
				t.Fatalf("%s: a message convinced rank %d of its own death", state, rank)
			}
			if a == nil {
				continue
			}
			if err := a.plan(); err != nil {
				t.Fatalf("plan: %v", err)
			}
			if a.red != nil { // whatever was counted sums, whatever was adopted stores or is refused
				elem, count := a.red.shape()
				a.reduce(make([]int64, packedWords(elem, count)))
				if a.dec != nil {
					_ = a.red.store(a.dec)
				}
			}
			inRange := func(r int) bool { return r >= 0 && r < n }
			if !inRange(a.round) || a.parent < -1 || a.parent >= n {
				t.Fatalf("planned round %d parent %d in a world of %d", a.round, a.parent, n)
			}
			for _, ch := range append(a.children, a.wards...) {
				if !inRange(ch) || ch == rank {
					t.Fatalf("planned child or ward %d in a world of %d at rank %d", ch, n, rank)
				}
			}
		}
	})
}

// --- benchmark ---------------------------------------------------------

// BenchmarkAgree is the failure-free agreement: every rank calls Agree
// b.N times back to back. ns/op is the wall time of one agreement across
// the world — on a machine with fewer cores than ranks that is the CPU the
// messages cost, which no tree shape changes; msgs/op is counted, not
// assumed; and on simnet model-us/op is the agreement's critical path under
// the Summit link model (one process per node: 3 us latency, 1 us of sender
// overhead per message), the number the fanout is chosen by. The
// allreduce-8k cases are the agreed allreduce of 1 Ki float64 — the
// resilient wrapper's whole step on the latency path — over the same
// messages.
func BenchmarkAgree(b *testing.B) {
	agree := func(c *Comm) error { _, err := c.Agree(1); return err }
	for _, op := range []struct {
		name string
		run  func(*Comm) error
	}{{"", agree}, {"allreduce-8k/", benchAllreduce8k}} {
		for _, n := range []int{4, 16, 64} {
			b.Run(fmt.Sprintf("simnet/%sworld=%d", op.name, n), func(b *testing.B) {
				cfg := simnet.Summit(n)
				cfg.ProcsPerNode = 1
				c := simnet.New(cfg)
				procs := c.Procs()
				eps := make([]transport.Endpoint, n)
				for r, pr := range procs {
					eps[r] = c.Endpoint(pr)
				}
				benchAgree(b, procs, eps, op.run)
				b.ReportMetric(c.MaxTime()*1e6/float64(b.N+1), "model-us/op")
			})
		}
		b.Run("tcpnet/"+op.name+"world=4", func(b *testing.B) {
			const n = 4
			procs := make([]ProcID, n)
			addrs := map[ProcID]string{}
			tcp := make([]*tcpnet.Endpoint, n)
			for r := range tcp {
				ep, err := tcpnet.Listen("127.0.0.1:0", tcpnet.Config{})
				if err != nil {
					b.Fatal(err)
				}
				defer ep.Close()
				tcp[r], procs[r], addrs[ProcID(r)] = ep, ProcID(r), ep.Addr()
			}
			eps := make([]transport.Endpoint, n)
			for r, ep := range tcp {
				ep.Start(ProcID(r), addrs)
				eps[r] = ep
			}
			benchAgree(b, procs, eps, op.run)
		})
	}
}

func benchAllreduce8k(c *Comm) error {
	data := make([]float64, 1024)
	ok, err := AllreduceAgreed(c, data, OpSum)
	if err == nil && !ok {
		err = fmt.Errorf("agreed allreduce failed in a healthy world")
	}
	return err
}

func benchAgree(b *testing.B, procs []ProcID, eps []transport.Endpoint, op func(*Comm) error) {
	n := len(procs)
	counted := make([]*countingEndpoint, n)
	comms := make([]*Comm, n)
	for r := range eps {
		counted[r] = &countingEndpoint{Endpoint: eps[r]}
		comm, err := World(Attach(counted[r]), procs)
		if err != nil {
			b.Fatal(err)
		}
		comms[r] = comm
	}
	run := func(iters int) {
		var wg sync.WaitGroup
		for r := range comms {
			wg.Add(1)
			go func(comm *Comm) {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					if err := op(comm); err != nil {
						b.Error(err)
						return
					}
				}
			}(comms[r])
		}
		wg.Wait()
	}
	run(1) // dial
	sent0 := int64(0)
	for _, ep := range counted {
		sent0 += ep.sent.Load()
	}
	b.ResetTimer()
	run(b.N)
	b.StopTimer()
	sent := -sent0
	for _, ep := range counted {
		sent += ep.sent.Load()
	}
	b.ReportMetric(float64(sent)/float64(b.N), "msgs/op")
}

// TestEarlyAgreeMessageDoesNotAdvanceClock: agreement messages are
// consumed at delivery, whatever the receiver is doing — but on the
// simulator "consumed" must not mean "charged". A child a virtual second
// ahead sends its contribution; the root, polling its control plane while
// still at time zero, sets the message aside without its clock moving, and
// pays the arrival time only when it enters that agreement. (Charged at
// the poll, the future leaked into whatever the root was still doing:
// Figure 4's retried collective read 67 ms instead of 50.)
func TestEarlyAgreeMessageDoesNotAdvanceClock(t *testing.T) {
	c := flatCluster(2)
	procs := c.Procs()
	errs := simnet.RunAll(c, procs, func(rank int, ep *simnet.Endpoint) error {
		p := Attach(ep)
		comm, err := World(p, procs)
		if err != nil {
			return err
		}
		if rank == 1 {
			ep.Compute(1.0)
			_, err := comm.Agree(1)
			return err
		}
		for ep.QueueLen() == 0 {
			runtime.Gosched()
		}
		if err := p.Poll(); err != nil {
			return err
		}
		if p.AgreeBacklog() != 1 || ep.QueueLen() != 0 {
			return fmt.Errorf("after the poll: %d set aside, %d in the mailbox; want 1 and 0", p.AgreeBacklog(), ep.QueueLen())
		}
		if now := ep.Clock.Now(); now >= 0.5 {
			return fmt.Errorf("setting a future contribution aside moved the root's clock to %.3f", now)
		}
		if _, err := comm.Agree(1); err != nil {
			return err
		}
		if now := ep.Clock.Now(); now < 1.0 {
			return fmt.Errorf("the root decided at %.3f, before the contribution it needed arrived", now)
		}
		return nil
	})
	if err := simnet.FirstError(errs); err != nil {
		t.Fatal(err)
	}
}
