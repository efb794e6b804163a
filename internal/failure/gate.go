package failure

import (
	"sync"
	"time"

	"repro/internal/simnet"
	"repro/internal/vtime"
)

// Gate makes a scheduled failure land at the same point of a simulated run
// however the rank goroutines happen to be scheduled. Ranks report every
// step they reach; before firing, a victim waits — in wall-clock time
// only, its virtual clock untouched — until every other live peer has
// reached the step it fails at. Without the gate a peer still finishing
// the previous step in wall-clock time sees the failure inside that step
// on some runs and not on others, and the recovery it then pays (a rewind
// and a recomputed step) moves the measured cost by a whole step time.
type Gate struct {
	mu      sync.Mutex
	reached map[simnet.ProcID]int64
	left    map[simnet.ProcID]bool
}

// gateTimeout bounds the wait: a peer that cannot reach the step (it is
// itself blocked on something the victim will never do) must not hang the
// run, only lose the determinism.
const gateTimeout = 10 * time.Second

// NewGate returns an empty gate.
func NewGate() *Gate {
	return &Gate{reached: make(map[simnet.ProcID]int64), left: make(map[simnet.ProcID]bool)}
}

// ordinal orders training points across epochs.
func ordinal(epoch, step int) int64 { return int64(epoch)<<32 | int64(step) }

// Reach records that p has started the given step of the given epoch (a
// rewound rank may report an earlier one again).
func (g *Gate) Reach(p simnet.ProcID, epoch, step int) {
	g.mu.Lock()
	g.reached[p] = ordinal(epoch, step)
	g.mu.Unlock()
}

// Leave records that p has stopped stepping (finished, dropped, dead).
func (g *Gate) Leave(p simnet.ProcID) {
	g.mu.Lock()
	g.left[p] = true
	g.mu.Unlock()
}

// Await blocks until every peer other than me that is neither dead on c
// nor gone has reached the given step of the given epoch.
func (g *Gate) Await(c *simnet.Cluster, me simnet.ProcID, peers []simnet.ProcID, epoch, step int) {
	at := ordinal(epoch, step)
	vtime.WaitUntil(gateTimeout, func() bool {
		g.mu.Lock()
		defer g.mu.Unlock()
		for _, p := range peers {
			if p != me && g.reached[p] < at && !g.left[p] && !c.IsDead(p) {
				return false
			}
		}
		return true
	})
}
