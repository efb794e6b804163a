package chaos_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/transport/chaos"
)

// TestAgreeUniformUnderReorder is a seeded property test for the ULFM
// agree step under randomized delivery order: a probabilistic chaos hold
// rule shuffles agreement traffic (AnyTag covers transport.CtlAgree, the
// control tag it rides) while a schedule drawn from the seed kills members
// at the protocol's own moments — the root after k of its down-sends, an
// interior node between receiving the decision and forwarding it, a member
// right after contributing, two of those at once — and sometimes has a
// member leave after returning. Worlds {2, 3, 5, 8, 13} x 64 seeds; one
// seed is one fault schedule and one delivery schedule. Every member
// alive at the end must have returned the identical agreed value and
// error class, the follow-up Shrink the identical membership and context
// id, and the run must terminate. On a failure the scenario is re-run
// with reordering disabled to report whether the shuffle was essential.
func TestAgreeUniformUnderReorder(t *testing.T) {
	if testing.Short() {
		t.Skip("property test: skipped in -short")
	}
	seeds := make([]int64, 0, 65)
	for s := int64(1); s <= 64; s++ {
		seeds = append(seeds, s)
	}
	if *chaosSeed > 64 {
		seeds = append(seeds, *chaosSeed)
	}
	worlds := []int{2, 3, 5, 8, 13}
	shuffled := map[int]int{}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			for _, world := range worlds {
				n, err := runAgreeScenario(world, seed, true)
				shuffled[world] += n
				if err == nil {
					continue
				}
				t.Errorf("world %d with reordering: %v", world, err)
				if _, err2 := runAgreeScenario(world, seed, false); err2 != nil {
					t.Logf("world %d also fails without reordering: %v", world, err2)
				} else {
					t.Logf("world %d passes without reordering: the shuffle is essential", world)
				}
			}
		})
	}
	for _, world := range worlds {
		if shuffled[world] == 0 {
			t.Errorf("world %d: no agreement message was ever reordered in %d schedules — the property was not exercised", world, len(seeds))
		}
	}
}

// agreeFaults draws the seed's kill schedule as chaos rules. A rule's Nth
// at PointAgreeDecide is 1 + the number of down-sends the process gets
// out first. At least one rank is left untouched; leaver is -1 for none.
func agreeFaults(world int, seed int64, procs []transport.ProcID) (rules []chaos.Rule, leaver int) {
	rng := rand.New(rand.NewSource(seed*977 + int64(world)))
	taken := map[int]bool{}
	pick := func() (int, bool) {
		if len(taken) >= world-1 {
			return 0, false
		}
		r := rng.Intn(world)
		for taken[r] {
			r = rng.Intn(world)
		}
		taken[r] = true
		return r, true
	}
	killDeciding := func(r, nth int) {
		rules = append(rules, chaos.Rule{
			Name: fmt.Sprintf("kill-rank%d", r), Proc: procs[r], Point: transport.PointAgreeDecide, Nth: nth, Op: chaos.OpKill,
		})
	}
	killContributor := func(r int) {
		rules = append(rules, chaos.Rule{
			Name: fmt.Sprintf("kill-rank%d", r), Proc: procs[r], Point: transport.PointAgreeContrib, Nth: 1, Op: chaos.OpKill,
		})
	}
	for i, k := 0, rng.Intn(3); i < k; i++ {
		switch rng.Intn(3) {
		case 0: // the root, after k of its down-sends
			if !taken[0] && len(taken) < world-1 {
				taken[0] = true
				killDeciding(0, 1+rng.Intn(5))
			}
		case 1: // holds the decision, forwards none of it
			if r, ok := pick(); ok {
				killDeciding(r, 1)
			}
		default: // contributed, never hears the decision
			if r, ok := pick(); ok {
				killContributor(r)
			}
		}
	}
	leaver = -1
	if rng.Intn(3) == 0 {
		if r, ok := pick(); ok {
			leaver = r
		}
	}
	return rules, leaver
}

// agreeResult is what one member still alive at the end saw.
type agreeResult struct {
	Val      uint32
	Failed   bool // Agree returned a ProcFailedError
	Shrunk   []transport.ProcID
	ShrunkID uint64
}

// runAgreeScenario plays one schedule on a simulated world: every rank
// calls Agree with a distinct flag word, survivors Shrink, and everybody
// who has returned keeps polling — releasing its held sends and answering
// latecomers — until the last one is through. It returns the number of
// agreement messages the shuffle reordered and the first violated
// invariant, if any.
func runAgreeScenario(world int, seed int64, withHolds bool) (int, error) {
	c := simnet.New(simnet.Config{
		Nodes:              1,
		ProcsPerNode:       world,
		IntraNodeLatency:   1e-6,
		InterNodeLatency:   3e-6,
		IntraNodeBandwidth: 50e9,
		InterNodeBandwidth: 4e9,
		DetectLatency:      1e-3,
		SpawnDelay:         5,
	})
	procs := c.Procs()

	hold := chaos.DataRule("shuffle", chaos.OpHold)
	hold.Prob = 0.4
	hold.Disabled = !withHolds
	kills, leaver := agreeFaults(world, seed, procs)
	eng := chaos.New(chaos.Scenario{Name: "agree-prop", Seed: seed, Rules: append([]chaos.Rule{hold}, kills...)})
	for _, pr := range procs {
		pr := pr
		eng.OnKill(pr, func() { c.Kill(pr) })
	}
	eng.Install()
	defer eng.Uninstall()

	var (
		mu      sync.Mutex
		results = map[int]agreeResult{}
		busy    atomic.Int32 // ranks that may still need an answer
	)
	busy.Store(int32(world))

	body := func(rank int, ep *simnet.Endpoint) error {
		released := false
		release := func() {
			if !released {
				released = true
				busy.Add(-1)
			}
		}
		defer release()
		wep := eng.Wrap(ep)
		p := mpi.Attach(wep)
		comm, err := mpi.World(p, procs)
		if err != nil {
			return err
		}
		var res agreeResult
		res.Val, err = comm.Agree(^uint32(0) &^ (1 << uint(rank)))
		if ep.Closed() {
			return nil // killed inside the protocol, as scheduled
		}
		if err != nil && !mpi.IsProcFailed(err) {
			return fmt.Errorf("rank %d: agree: %w", rank, err)
		}
		res.Failed = err != nil
		if rank == leaver {
			p.Leave()
			_ = wep.PollCtl() // a hand-off the shuffle captured goes out too
			c.Kill(ep.ID())
			return nil
		}
		shrunk, err := comm.Shrink()
		if ep.Closed() {
			return nil // a kill armed for a later hit landed in the shrink
		}
		if err != nil {
			return fmt.Errorf("rank %d: shrink: %w", rank, err)
		}
		res.Shrunk, res.ShrunkID = chaos.SortedProcs(shrunk.Procs()), shrunk.ID()
		mu.Lock()
		results[rank] = res
		mu.Unlock()
		release()
		for busy.Load() > 0 { // gone on, and still there to be asked
			if err := wep.PollCtl(); err != nil {
				break
			}
			runtime.Gosched()
		}
		return nil
	}

	done := make(chan map[simnet.ProcID]error, 1)
	go func() { done <- simnet.RunAll(c, procs, body) }()
	select {
	case errs := <-done:
		if err := simnet.FirstError(errs); err != nil {
			return 0, fmt.Errorf("%w\n%s", err, eng)
		}
	case <-time.After(30 * time.Second):
		return 0, fmt.Errorf("did not terminate\n%s", eng)
	}

	shuffled := 0
	for _, ev := range eng.Events() {
		if ev.Op == chaos.OpHold && ev.Tag == transport.CtlAgree {
			shuffled++
		}
	}
	if len(results) == 0 {
		return shuffled, fmt.Errorf("nobody survived a schedule that spares a rank\n%s", eng)
	}
	ref := -1
	for rank := 0; rank < world; rank++ {
		res, ok := results[rank]
		switch {
		case !ok:
		case ref < 0:
			ref = rank
		case !reflect.DeepEqual(res, results[ref]):
			return shuffled, fmt.Errorf("rank %d returned %+v, rank %d returned %+v\n%s",
				ref, results[ref], rank, res, eng)
		}
	}
	return shuffled, nil
}
