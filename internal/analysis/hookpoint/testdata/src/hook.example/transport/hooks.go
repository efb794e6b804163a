// Package transport is a fixture mirror of the real transport hook
// vocabulary. consistency_test.go parses this file against the real
// internal/transport/hooks.go and fails on any missing name or drifted
// value, so the fixture cannot silently fall behind the live set.
package transport

// ProcID mirrors the real transport.ProcID.
type ProcID int64

// The closed hook-point vocabulary.
const (
	// The ULFM repair pipeline points, mirroring hooks.go.
	PointUlfmRevoked = "ulfm.repair.revoked"
	PointUlfmAgreed  = "ulfm.repair.agreed"
	PointUlfmShrunk  = "ulfm.repair.shrunk"

	// The collective-protocol points, mirroring hooks.go.
	PointAgreeContrib    = "mpi.agree.contrib"
	PointAgreeDecide     = "mpi.agree.decide"
	PointPipelineRSChunk = "mpi.pipeline.rs.chunk"
	PointPipelineAGChunk = "mpi.pipeline.ag.chunk"
	PointGrowSend        = "mpi.grow.send"
	PointJoinRecv        = "mpi.join.recv"

	// The rendezvous and elastic-loop points, mirroring hooks.go.
	PointRdvWelcome    = "rendezvous.join.welcome"
	PointElasticRound  = "elastic.round.start"
	PointElasticCommit = "elastic.commit"

	// The state-transfer handshake points, mirroring hooks.go.
	PointStateOffer = "autopilot.state.offer"
	PointStateChunk = "autopilot.state.chunk"
	PointStateRecv  = "autopilot.state.recv"
	PointStateAck   = "autopilot.state.ack"

	// The recovery-policy and cascade points, mirroring hooks.go.
	PointPolicyDecide   = "policy.decide"
	PointPolicyRealized = "policy.realized"
	PointCascadeStage   = "chaos.cascade.stage"
)

// Hit announces that proc reached the named protocol point.
func Hit(proc ProcID, point string) {}
