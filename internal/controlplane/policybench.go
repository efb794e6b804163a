package controlplane

import (
	"time"

	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/transport"
)

// The recovery-policy rows of the control-plane report.
//
// policy_decision_us is the one wall-clock number in this report: the
// engine's Advise path is pure in-memory arithmetic (classify, price
// four strategies, pick), so its latency is a property of the code, not
// the simulator. It is far too small to gate relatively on shared CI
// runners; benchgate instead enforces an absolute ceiling
// (-max-decision-us), which catches an accidental O(world²) scan or an
// allocation explosion while ignoring host speed.
//
// policy_regret_pct is fully deterministic: a scripted failure sequence
// with fixed realized costs, run on a virtual clock against a private
// (empty) obs registry so the cost model resolves through its static
// seeds and then its EWMA cells. The number is the post-warmup mean
// |realized − predicted| as a percentage of realized — how well the
// model has converged on what repairs actually cost — and regresses
// only if the prediction or EWMA arithmetic changes.
const (
	policyDecisionIters = 2000
	policyScriptEvents  = 30  // EWMA warmup + measured tail
	policyRegretTail    = 10  // events averaged into the regret row
	policyEventGapSec   = 100 // far apart: every event classifies as proc-drop

	// Realized costs alternate around their mean, so the EWMA chases a
	// moving target and settles into a deterministic nonzero residual —
	// the steady-state tracking error the regret row pins.
	policyRealizedLoSec = 0.6
	policyRealizedHiSec = 1.0
)

// measurePolicyDecisionUS times Advise on a fresh engine over a world
// of the given size, microseconds per decision.
func measurePolicyDecisionUS(world int) float64 {
	eng, survivors := policyFixture(world)
	dead := []transport.ProcID{transport.ProcID(world - 1)}
	now := 0.0
	start := time.Now()
	for i := 0; i < policyDecisionIters; i++ {
		now += policyEventGapSec
		eng.Advise(now, survivors, dead)
	}
	return float64(time.Since(start).Microseconds()) / policyDecisionIters
}

// measurePolicyRegretPct drives the scripted sequence: each event is one
// proc-drop decided then realized, with realized costs alternating
// between the lo and hi values. The EWMA cell chases the oscillation and
// the tail mean |realized − predicted| / realized is its steady-state
// tracking error. The fixture's near-zero horizon strips the (exactly
// priced) degraded-capacity charge from the prediction, so the row
// isolates the adaptive estimator — the part that could silently drift.
func measurePolicyRegretPct(world int) float64 {
	eng, survivors := policyFixture(world)
	dead := []transport.ProcID{transport.ProcID(world - 1)}
	now := 0.0
	var sum float64
	for i := 0; i < policyScriptEvents; i++ {
		now += policyEventGapSec
		realized := policyRealizedLoSec
		if i%2 == 1 {
			realized = policyRealizedHiSec
		}
		d := eng.Decide(now, survivors, dead)
		eng.Realize(now+realized, d.Code, realized)
		if i >= policyScriptEvents-policyRegretTail {
			miss := d.Predicted - realized
			if miss < 0 {
				miss = -miss
			}
			sum += miss / realized
		}
	}
	return sum / policyRegretTail * 100
}

func policyFixture(world int) (*policy.Engine, []transport.ProcID) {
	eng := policy.New(policy.Config{
		Mode:     policy.ModeAuto,
		Horizon:  1e-9, // regret row: estimator only, no capacity charge
		Registry: obs.NewRegistry(),
	})
	survivors := make([]transport.ProcID, 0, world-1)
	for p := 0; p < world-1; p++ {
		survivors = append(survivors, transport.ProcID(p))
	}
	return eng, survivors
}
