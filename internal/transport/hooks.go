package transport

import "sync/atomic"

// Named protocol points. Layers above the transport call Hit at the
// moments a fault-injection harness most wants to own: between the phases
// of the ULFM repair pipeline, per chunk inside the ring, and
// around membership changes. With no hook installed a Hit is a single
// atomic load, so the production path pays nothing.
//
// The names form a small stable vocabulary shared with
// internal/transport/chaos, whose scenario rules reference them to kill a
// process (or flip a partition) at an exact protocol moment — "mid-chunk
// in the pipelined ring", "between revoke and agree", "while joining".
const (
	// PointUlfmRevoked: inside the ULFM repair pipeline, after the
	// communicator has been revoked but before the agreement runs.
	PointUlfmRevoked = "ulfm.repair.revoked"
	// PointUlfmAgreed: after the repair agreement, before shrink.
	PointUlfmAgreed = "ulfm.repair.agreed"
	// PointUlfmShrunk: after the shrunken communicator is built.
	PointUlfmShrunk = "ulfm.repair.shrunk"
	// PointAgreeContrib: a participant has contributed to a fault-tolerant
	// agreement round and is about to await the decision.
	PointAgreeContrib = "mpi.agree.contrib"
	// PointAgreeDecide: a member holds an agreement's decision and is
	// forwarding it down the tree. Hit once before the first forward and
	// once after every forward, so the Nth hit is "after N-1 down-sends".
	PointAgreeDecide = "mpi.agree.decide"
	// PointPipelineRSChunk / PointPipelineAGChunk: one chunk of a ring
	// has been sent (reduce-scatter / allgather half). Every ring in
	// internal/mpi is the one K-chunk ring, so they fire on every ring
	// chunk, a K = 1 ring's whole segments included; only the
	// kill_mid_chunk* scenarios arm them, and those pin the pipelined ring.
	PointPipelineRSChunk = "mpi.pipeline.rs.chunk"
	PointPipelineAGChunk = "mpi.pipeline.ag.chunk"
	// PointGrowSend: rank 0 of a Grow has handed membership to a newcomer.
	PointGrowSend = "mpi.grow.send"
	// PointJoinRecv: a newcomer is about to block for its join message.
	PointJoinRecv = "mpi.join.recv"
	// PointRdvWelcome: a rendezvous client has received its welcome.
	PointRdvWelcome = "rendezvous.join.welcome"
	// PointElasticRound: an elastic worker is starting a training round.
	PointElasticRound = "elastic.round.start"
	// PointElasticCommit: an elastic worker has committed a checkpoint.
	PointElasticCommit = "elastic.commit"
	// PointStateOffer: a state-transfer sender has announced the stream
	// (total bytes, chunking, checksum) to the joining rank.
	PointStateOffer = "autopilot.state.offer"
	// PointStateChunk: the sender has pushed one bandwidth-capped chunk
	// of model/optimizer state onto the wire.
	PointStateChunk = "autopilot.state.chunk"
	// PointStateRecv: the joining rank has received one state chunk.
	PointStateRecv = "autopilot.state.recv"
	// PointStateAck: the joining rank has verified the full stream and
	// acknowledged it back to the sender.
	PointStateAck = "autopilot.state.ack"
	// PointPolicyDecide: the recovery-policy engine has classified a
	// failure and chosen a strategy (deciding rank only).
	PointPolicyDecide = "policy.decide"
	// PointPolicyRealized: the realized cost of a policy decision has
	// been measured and folded back into the cost model.
	PointPolicyRealized = "policy.realized"
	// PointCascadeStage: the chaos engine has released one stage of a
	// staged failure cascade.
	PointCascadeStage = "chaos.cascade.stage"
)

// PointHook observes protocol points. proc is the process hitting the
// point; the hook runs synchronously on that process's goroutine, so it
// may act on the process (e.g. kill it) at exactly that moment.
type PointHook func(proc ProcID, point string)

var pointHook atomic.Pointer[PointHook]

// SetPointHook installs the process-global protocol-point hook (nil to
// remove). Only one hook is active at a time; the fault-injection harness
// installs its engine for the duration of a scenario.
func SetPointHook(h PointHook) {
	if h == nil {
		pointHook.Store(nil)
		return
	}
	pointHook.Store(&h)
}

// Hit reports that proc reached the named protocol point. It is a no-op
// (one atomic load) unless a hook is installed.
func Hit(proc ProcID, point string) {
	if h := pointHook.Load(); h != nil {
		(*h)(proc, point)
	}
}
