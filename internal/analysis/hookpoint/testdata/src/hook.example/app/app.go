// Package app exercises the hookpoint rules from a hook consumer.
package app

import (
	"hook.example/chaos"
	"hook.example/transport"
)

// localStale redeclares a hook point and drifted from hooks.go.
const localStale = "ulfm.repair.revokd"

// localAlias duplicates a live hook value under a non-canonical name.
const localAlias = "elastic.round.start"

// PointLocalGood is a Point-named local constant with a live value:
// accepted by the value cross-check.
const PointLocalGood = "mpi.grow.send"

func hits(p transport.ProcID, dyn string) {
	transport.Hit(p, transport.PointUlfmRevoked)  // canonical: ok
	transport.Hit(p, PointLocalGood)              // Point*-named, live value: ok
	transport.Hit(p, "ulfm.repair.revoked")       // want `raw string "ulfm.repair.revoked": use the named constant transport.PointUlfmRevoked`
	transport.Hit(p, "elastic.round.begin")       // want `raw string "elastic.round.begin", which matches no transport.Point\* hook point`
	transport.Hit(p, localStale)                  // want `constant localStale with value "ulfm.repair.revokd", which matches no transport.Point\* hook point`
	transport.Hit(p, localAlias)                  // want `uses constant localAlias instead of the canonical transport.PointElasticRound`
	transport.Hit(p, dyn)                         // want `computes its hook point dynamically`
	transport.Hit(p, "ulfm."+"repair.revoked")    // want `raw string "ulfm.repair.revoked": use the named constant transport.PointUlfmRevoked`
}

// policyHits exercises the recovery-policy vocabulary: canonical
// constants pass, raw strings and near-miss values are rejected.
func policyHits(p transport.ProcID) {
	transport.Hit(p, transport.PointPolicyDecide)   // canonical: ok
	transport.Hit(p, transport.PointPolicyRealized) // canonical: ok
	transport.Hit(p, transport.PointCascadeStage)   // canonical: ok
	transport.Hit(p, "policy.decide")               // want `raw string "policy.decide": use the named constant transport.PointPolicyDecide`
	transport.Hit(p, "policy.decided")              // want `raw string "policy.decided", which matches no transport.Point\* hook point`
}

// stateHits exercises the state-transfer handshake vocabulary: the
// canonical constants pass, raw strings and stale values are rejected.
func stateHits(p transport.ProcID) {
	transport.Hit(p, transport.PointStateOffer) // canonical: ok
	transport.Hit(p, transport.PointStateChunk) // canonical: ok
	transport.Hit(p, transport.PointStateAck)   // canonical: ok
	transport.Hit(p, "autopilot.state.recv")    // want `raw string "autopilot.state.recv": use the named constant transport.PointStateRecv`
	transport.Hit(p, "autopilot.state.done")    // want `raw string "autopilot.state.done", which matches no transport.Point\* hook point`
}

func rules() []chaos.Rule {
	return []chaos.Rule{
		{Name: "ok", Proc: 2, Point: transport.PointUlfmRevoked, Nth: 1, Op: chaos.OpKill},
		{Name: "ungated", Proc: 2, Point: "", Op: chaos.OpKill}, // empty point: ok
		{Name: "anyproc", Op: chaos.OpKill},                     // field omitted: ok
		{Name: "raw", Point: "elastic.round.start"},             // want `raw string "elastic.round.start": use the named constant transport.PointElasticRound`
		{Name: "stale", Point: localStale},                      // want `constant localStale with value "ulfm.repair.revokd", which matches no transport.Point\* hook point`
		{"pos", 3, "mpi.grow.send", 1, chaos.OpKill},            // want `raw string "mpi.grow.send": use the named constant transport.PointGrowSend`
		{Name: "policyok", Point: transport.PointPolicyDecide, Op: chaos.OpKill}, // canonical policy point: ok
		{Name: "policyraw", Point: "chaos.cascade.stage"},       // want `raw string "chaos.cascade.stage": use the named constant transport.PointCascadeStage`
		{Name: "xferok", Point: transport.PointStateRecv, Op: chaos.OpKill},    // canonical state-transfer point: ok
		{Name: "xferraw", Point: "autopilot.state.chunk"},       // want `raw string "autopilot.state.chunk": use the named constant transport.PointStateChunk`
	}
}
