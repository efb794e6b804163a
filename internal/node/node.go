// Package node assembles one elastic worker — the unit the paper calls a
// process: a TCP transport endpoint (optionally behind a chaos engine), a
// rendezvous membership whose hub is the failure detector (heartbeats,
// and the unclean close of the control connection), a resilient world
// communicator with an optional recovery-policy advisor, and the
// autopilot's grow boundary with the warm-spare life cycle. cmd/elasticd
// is a flag parser over it and internal/clustertest a test driver; both
// build the same Node against the same hub, so the conformance suites run
// the worker and the detector that ship.
//
// One Node is driven from one goroutine, like the mpi.Proc inside it:
// AwaitAdmission, Boundary, the collectives on R and Leave. Die, Mute and
// Close may be called from anywhere (a signal handler, a chaos kill hook).
package node

import (
	"fmt"
	"net"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/autopilot"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/policy"
	"repro/internal/rendezvous"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/transport/chaos"
	"repro/internal/transport/tcpnet"
	"repro/internal/ulfm"
)

// joinTimeout bounds the rendezvous join: dial retries while the hub is
// not up yet, then the wait for the whole world to gather.
const joinTimeout = 5 * time.Minute

// Config parameterizes Start.
type Config struct {
	// Rendezvous is the hub address. Required.
	Rendezvous string
	// Listen is the transport listen address (port 0 = ephemeral).
	Listen string
	// Spare joins as a warm standby: no communicator until a Boundary
	// admits it (see AwaitAdmission).
	Spare bool
	// Chaos, if set, wraps the endpoint and every connection it makes in
	// the fault-injecting middleware.
	Chaos *chaos.Engine
	// Policy, if set, runs a recovery-policy engine in the ULFM advisor
	// seat (Proc is filled in) and gates the autopilot's swaps with it.
	Policy *policy.Config
	// Scale, if set, enables the grow boundary: an autopilot controller
	// with this schedule and load signal (Target, Proc, Trace and SwapGate
	// are filled in). Nil is a fixed world; Boundary returns at once.
	Scale *autopilot.Config
	// XferRate caps the newcomer state stream in bytes/s (0 = unlimited).
	XferRate float64
	// Trace journals membership, recovery and autopilot records.
	Trace *trace.Recorder
	// Logf receives the worker's log lines (nil = discard).
	Logf func(format string, args ...any)
}

// Node is one assembled worker.
type Node struct {
	Proc transport.ProcID
	EP   *tcpnet.Endpoint
	CL   *rendezvous.Client
	P    *mpi.Proc
	// R is the resilient communicator: the world's for a gathered member,
	// the grown one for a spare once AwaitAdmission returns (nil before).
	R *ulfm.ResilientComm
	// Pol is the recovery-policy engine (nil unless Config.Policy).
	Pol *policy.Engine

	// Ctl is the node's autopilot controller (nil without Config.Scale).
	// Every node keeps one; the one that decides is the seat's.
	Ctl *autopilot.Controller

	cfg       Config
	repair    ulfm.Policy // the ULFM repair policy every communicator of this node runs
	reconfigs int
	sched     []autopilot.ScheduleStep
	base      int  // gathered world size: the schedule's starting target
	loadOn    bool // a load signal is on: the seat's target replicates each boundary
	target    int  // last broadcast seat target; 0 until the first boundary lands
	// spent are the spares this node admitted or burned as the seat: the
	// hub's pool lags an activation by one delta round-trip.
	spent map[transport.ProcID]bool
}

// Start brings one worker up: endpoint, join, notifications and
// communicator. It returns once the hub's welcome has arrived — for a
// gathered member, once the whole world has.
func Start(cfg Config) (*Node, error) {
	n := &Node{cfg: cfg}
	// The ProcID is assigned at the welcome, after the endpoint exists;
	// the conn hook reads it through this atomic (every dial happens
	// after ep.Start, when it is set).
	var self atomic.Int64
	self.Store(-1)
	var tcfg tcpnet.Config
	if cfg.Chaos != nil {
		tcfg.WrapConn = func(conn net.Conn, dialed bool) net.Conn {
			return cfg.Chaos.WrapConn(transport.ProcID(self.Load()))(conn, dialed)
		}
	}
	ep, err := tcpnet.Listen(cfg.Listen, tcfg)
	if err != nil {
		return nil, err
	}
	cl, err := rendezvous.JoinWith(cfg.Rendezvous, rendezvous.JoinOptions{
		SelfAddr: ep.Addr(),
		Timeout:  joinTimeout,
		Spare:    cfg.Spare,
	})
	if err != nil {
		ep.Close()
		return nil, err
	}
	n.Proc, n.EP, n.CL = cl.Proc(), ep, cl
	self.Store(int64(n.Proc))
	ep.Start(n.Proc, cl.Peers())

	// Spares announced or activated after the welcome must be dialable
	// before anyone streams state to them or grows them into a
	// collective; Start is idempotent.
	teach := func(p transport.ProcID, addr string) {
		ep.Start(n.Proc, map[transport.ProcID]string{p: addr})
	}
	// A clean exit is not a death, but the member is just as gone: the
	// same MarkDead releases anything still addressed to it.
	gone := func(line string) func(transport.ProcID) {
		return func(d transport.ProcID) {
			n.logf(line, d)
			ep.MarkDead(d)
		}
	}
	cl.StartNotify(rendezvous.Notifications{
		OnPeerDown: gone("rendezvous declared proc %d down"),
		OnPeerLeft: gone("proc %d left"),
		OnPeerUp:   teach,
		OnSpareUp:  teach,
		// Nothing recovers from this yet (ROADMAP item 1): the run goes
		// on, undetected failures will hang it, and this line is why.
		OnHubLost: func(err error) {
			n.logf("lost the rendezvous hub: %v; failures can no longer be detected", err)
		},
	})
	n.logf("joined as proc %d (rank %d of %d), transport %s", n.Proc, cl.Rank(), cl.World(), ep.Addr())

	var tep transport.Endpoint = ep
	if cfg.Chaos != nil {
		tep = cfg.Chaos.Wrap(ep)
	}
	n.P = mpi.Attach(tep)
	n.repair = ulfm.DefaultPolicy()
	n.repair.OnReconfigure = func(nc *mpi.Comm, bd *metrics.Breakdown) {
		n.reconfigs++
		cfg.Trace.Recovery(n.Now(), int(n.Proc), n.reconfigs, "failure", bd, false)
		n.logf("reconfigured to size %d (recovery #%d)", nc.Size(), n.reconfigs)
	}
	if cfg.Policy != nil {
		pc := *cfg.Policy
		pc.Proc = n.Proc
		n.Pol = policy.New(pc)
		n.repair.Advisor = n.Pol
	}
	if cfg.Scale != nil {
		ac := *cfg.Scale
		ac.Schedule = slices.Clone(ac.Schedule) // New sorts it in place
		ac.Target, ac.Proc, ac.Trace = cl.World(), n.Proc, cfg.Trace
		if n.Pol != nil {
			ac.SwapGate = n.Pol.GateSwap
		}
		n.Ctl = autopilot.New(ac)
		n.sched, n.base, n.loadOn = ac.Schedule, cl.World(), ac.Load != nil
		n.spent = map[transport.ProcID]bool{}
	}
	if !cfg.Spare {
		comm, err := mpi.World(n.P, cl.Procs())
		if err != nil {
			n.Die()
			return nil, err
		}
		n.R = ulfm.New(comm, nil, n.repair)
	}
	return n, nil
}

func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf(format, args...)
	}
}

// Now is the node's clock: wall seconds since its endpoint opened.
func (n *Node) Now() float64 { return n.EP.VClock().Now() }

// Boundary is the epoch boundary after round step, called by every
// member of the current communicator with the state a newcomer starts
// from. Rank 0 — the seat, which migrates on repair — consults its own
// controller; ulfm.Grow's broadcasts replicate the decision; each
// newcomer is streamed the state under the rate cap and activated at the
// hub. When the world exceeds the target the highest rank (the newest
// member) gets evict=true and should Leave. Without Config.Scale it is a
// no-op.
func (n *Node) Boundary(step int, state []byte) (evict bool, err error) {
	r := n.R
	if n.Ctl == nil {
		return false, nil
	}
	// The seat admits from the hub's pool as this client last heard it.
	// Teach the endpoint that same pool first, so neither the join nor
	// the state stream waits on the spareup reader having run.
	spares := n.CL.Spares()
	n.EP.Start(n.Proc, spares)
	var admit []transport.ProcID
	if r.Comm().Rank() == 0 {
		var idle []transport.ProcID
		for p := range spares {
			if !n.spent[p] {
				idle = append(idle, p)
			}
		}
		slices.Sort(idle)
		now := n.Now()
		n.Ctl.ObserveMembers(now, r.Comm().Procs())
		n.Ctl.ObservePool(idle)
		admit = n.Ctl.Decide(now, step).Admit
	}
	// Only the seat samples the load metric, so its target replicates
	// over the pre-grow communicator: a spare admitted here is still in
	// RecvState and picks it up at its first boundary as a member (its
	// schedule target, its entry size, holds it in place until then). On
	// seat migration the load-accrued component resets.
	if n.loadOn {
		tgt := []int64{0}
		if r.Comm().Rank() == 0 {
			tgt[0] = int64(n.Ctl.Target())
		}
		if err := ulfm.Bcast(r, tgt, 0); err != nil {
			return false, err
		}
		if tgt[0] > 0 {
			n.target = int(tgt[0])
		}
	}
	newcomers, err := r.Grow(admit)
	if err != nil {
		return false, err
	}
	if r.Comm().Rank() == 0 {
		for _, np := range newcomers {
			n.spent[np] = true
			xfer := autopilot.XferOptions{RateBytesPerSec: n.cfg.XferRate, Step: int64(step)}
			if err := autopilot.SendState(n.EP, np, state, xfer); err != nil {
				// Burned spare: the next collective repairs the corpse out
				// and the next boundary tries the next one.
				n.logf("state stream to %d failed: %v", np, err)
				n.Ctl.SwapFailed(np)
				continue
			}
			n.Ctl.Admitted(n.Now(), []transport.ProcID{np})
			if err := n.CL.Activate(np); err != nil {
				n.logf("activate %d: %v", np, err)
			}
			n.logf("admitted proc %d at step %d (world %d)", np, step, r.Size())
		}
	}
	// The schedule's target is a pure function of the schedule and the
	// gathered world size, so every member computes it locally.
	target := n.base
	for _, s := range n.sched {
		if s.Step <= step {
			target += s.Delta
		}
	}
	if n.loadOn && n.target > 0 {
		target = n.target
	}
	if target > 0 && r.Size() > target {
		procs := r.Comm().Procs()
		evictee := procs[len(procs)-1]
		if r.Comm().Rank() == 0 {
			n.Ctl.Evicted(evictee) // a planned departure, not a death to answer
		}
		return evictee == n.Proc, nil
	}
	return false, nil
}

// AwaitAdmission is a spare's wait: stand by until a Boundary's Grow
// welcome wakes mpi.Join, then receive the state stream. It returns the
// state and the step it is stamped with; the spare enters at step+1 as a
// full member, with R set. Close ends the wait of a spare nobody needed.
func (n *Node) AwaitAdmission() (state []byte, step int64, err error) {
	n.logf("warm spare proc %d standing by", n.Proc)
	n.cfg.Trace.Membership(n.Now(), int(n.Proc), "spare_standby", nil)
	comm, err := mpi.Join(n.P)
	if err != nil {
		return nil, 0, fmt.Errorf("spare join: %w", err)
	}
	n.logf("admitted into communicator %#x (size %d), receiving state", comm.ID(), comm.Size())
	state, step, err = autopilot.RecvState(n.EP)
	if err != nil {
		return nil, 0, fmt.Errorf("spare state recv: %w", err)
	}
	n.cfg.Trace.Membership(n.Now(), int(n.Proc), "spare_enter",
		map[string]any{"step": step, "bytes": len(state)})
	n.R = ulfm.New(comm, nil, n.repair)
	return state, step, nil
}

// Leave is the clean departure of a member others outlive: the agreement
// hand-off first (a member that returned early from an agreement may be
// the only one holding its decision — see mpi.Proc.Leave), then Close.
func (n *Node) Leave() {
	n.P.Leave()
	n.Close()
}

// Close announces a rendezvous leave, which survivors hear as `left` at
// once, and shuts the node down. Safe to call more than once.
func (n *Node) Close() {
	n.CL.Close()
	n.Die() // the leave is out: dropping the connection now says nothing more
}

// Die is the kill -9 equivalent: the rendezvous connection drops without
// a leave and the transport shuts down. The hub reads the unclean close
// as the death and convicts at once.
func (n *Node) Die() {
	n.CL.Abandon()
	n.EP.Close()
}

// Mute models a hung process (SIGSTOP, a partitioned host): no more
// heartbeats, while the hub connection and the transport endpoint stay
// open. Only the hub's heartbeat sweep can reveal it, at DeadAfter.
func (n *Node) Mute() {
	n.CL.Freeze()
}
