package simnet

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/transport"
)

// Cluster is the simulated machine: a dynamic set of nodes and processes
// with a shared failure registry. All methods are safe for concurrent use.
type Cluster struct {
	cfg Config

	mu        sync.RWMutex
	procs     map[ProcID]*Endpoint
	nodes     map[NodeID][]ProcID
	deadProcs map[ProcID]bool
	deadNodes map[NodeID]bool
	nextProc  ProcID
	nextNode  NodeID
}

// New builds a cluster with cfg.Nodes nodes of cfg.ProcsPerNode processes
// each. It panics on an invalid configuration (programmer error).
func New(cfg Config) *Cluster {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Cluster{
		cfg:       cfg,
		procs:     make(map[ProcID]*Endpoint),
		nodes:     make(map[NodeID][]ProcID),
		deadProcs: make(map[ProcID]bool),
		deadNodes: make(map[NodeID]bool),
	}
	for n := 0; n < cfg.Nodes; n++ {
		node := c.addNodeLocked()
		for p := 0; p < cfg.ProcsPerNode; p++ {
			c.addProcLocked(node, 0)
		}
	}
	return c
}

// Config returns the cluster's cost-model configuration.
func (c *Cluster) Config() Config { return c.cfg }

func (c *Cluster) addNodeLocked() NodeID {
	id := c.nextNode
	c.nextNode++
	c.nodes[id] = nil
	return id
}

func (c *Cluster) addProcLocked(node NodeID, startTime float64) *Endpoint {
	id := c.nextProc
	c.nextProc++
	ep := &Endpoint{id: id, node: node, net: c, done: make(chan struct{})}
	ep.cond = sync.NewCond(&ep.mu)
	ep.Clock.Set(startTime)
	c.procs[id] = ep
	c.nodes[node] = append(c.nodes[node], id)
	return ep
}

// AddNode provisions a fresh (empty) node and returns its ID.
func (c *Cluster) AddNode() NodeID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.addNodeLocked()
}

// Spawn launches a new process on the given node. Its clock starts at
// at + SpawnDelay, modeling scheduler allocation and software loading.
// Spawning on a dead node fails.
func (c *Cluster) Spawn(node NodeID, at float64) (*Endpoint, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.nodes[node]; !ok {
		return nil, fmt.Errorf("simnet: spawn on unknown node %d", node)
	}
	if c.deadNodes[node] {
		return nil, fmt.Errorf("simnet: spawn on dead node %d", node)
	}
	return c.addProcLocked(node, at+c.cfg.SpawnDelay), nil
}

// Endpoint returns the endpoint for a process, or nil if it never existed.
func (c *Cluster) Endpoint(id ProcID) *Endpoint {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.procs[id]
}

// Procs returns all process IDs ever created, sorted.
func (c *Cluster) Procs() []ProcID {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]ProcID, 0, len(c.procs))
	for id := range c.procs {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// LiveProcs returns the IDs of all live processes, sorted.
func (c *Cluster) LiveProcs() []ProcID {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]ProcID, 0, len(c.procs))
	for id := range c.procs {
		if !c.deadProcs[id] {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Nodes returns all node IDs, sorted.
func (c *Cluster) Nodes() []NodeID {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]NodeID, 0, len(c.nodes))
	for id := range c.nodes {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// NodeOf returns the node hosting process id.
func (c *Cluster) NodeOf(id ProcID) (NodeID, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ep, ok := c.procs[id]
	if !ok {
		return 0, &UnknownProcError{Proc: id}
	}
	return ep.node, nil
}

// ProcsOnNode returns the processes hosted on node, sorted.
func (c *Cluster) ProcsOnNode(node NodeID) []ProcID {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := append([]ProcID(nil), c.nodes[node]...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// IsDead reports whether the process has been killed.
func (c *Cluster) IsDead(id ProcID) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.deadProcs[id]
}

// IsNodeDead reports whether the node has been killed.
func (c *Cluster) IsNodeDead(node NodeID) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.deadNodes[node]
}

// DeadProcs returns the set of failed processes, sorted.
func (c *Cluster) DeadProcs() []ProcID {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]ProcID, 0, len(c.deadProcs))
	for id := range c.deadProcs {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Kill fails a single process: its endpoint is closed, and every live
// endpoint receives a CtlPeerDown control message stamped with the
// victim's time plus the detection latency, modeling the failure
// detector's notification.
func (c *Cluster) Kill(id ProcID) {
	if ep := c.Endpoint(id); ep != nil {
		c.killAt(id, ep.Clock.Now())
	}
}

// killAt is Kill with the death stamped at virtual time at.
func (c *Cluster) killAt(id ProcID, at float64) {
	c.mu.Lock()
	victim, ok := c.procs[id]
	if !ok || c.deadProcs[id] {
		c.mu.Unlock()
		return
	}
	c.deadProcs[id] = true
	live := make([]*Endpoint, 0, len(c.procs))
	for pid, ep := range c.procs {
		if !c.deadProcs[pid] {
			live = append(live, ep)
		}
	}
	c.mu.Unlock()

	victim.markClosed()
	at += c.cfg.DetectLatency
	for _, ep := range live {
		ep.deliver(&Message{From: id, To: ep.id, Tag: CtlPeerDown, ArriveAt: at})
	}
}

// KillNodeOf fails the node hosting victim and marks it dead so no new
// process can be spawned there. The failure is one event at victim's
// clock: every process on the node dies at that moment, however far its
// own goroutine has run ahead or lagged behind, so the detector's notices
// do not depend on goroutine scheduling. It is called from victim's own
// goroutine, which owns that clock.
func (c *Cluster) KillNodeOf(victim ProcID) error {
	c.mu.Lock()
	ep, ok := c.procs[victim]
	if !ok {
		c.mu.Unlock()
		return &UnknownProcError{Proc: victim}
	}
	if c.deadNodes[ep.node] {
		c.mu.Unlock()
		return nil
	}
	c.deadNodes[ep.node] = true
	victims := append([]ProcID(nil), c.nodes[ep.node]...)
	c.mu.Unlock()
	at := ep.Clock.Now()
	for _, id := range victims {
		c.killAt(id, at)
	}
	return nil
}

// send implements Endpoint.Send: cost model plus delivery.
func (c *Cluster) send(from *Endpoint, dst ProcID, tag int, data any, bytes int64) error {
	c.mu.RLock()
	to, ok := c.procs[dst]
	dead := c.deadProcs[dst]
	c.mu.RUnlock()
	if !ok {
		return &UnknownProcError{Proc: dst}
	}
	if dead {
		return &PeerFailedError{Proc: dst}
	}
	lat, bw := c.linkParams(from.node, to.node)
	from.Clock.Advance(c.cfg.PerMessageOverhead)
	if bytes > 0 {
		from.Clock.Advance(float64(bytes) / bw)
	}
	arrive := from.Clock.Now() + lat
	// The mailbox outlives Send, and Send only borrows data: deliver a
	// copy. The copy costs no virtual time.
	to.deliver(&Message{From: from.id, To: dst, Tag: tag, Data: transport.Owned(data), Bytes: bytes, ArriveAt: arrive})
	return nil
}

func (c *Cluster) linkParams(a, b NodeID) (latency, bandwidth float64) {
	if a == b {
		return c.cfg.IntraNodeLatency, c.cfg.IntraNodeBandwidth
	}
	return c.cfg.InterNodeLatency, c.cfg.InterNodeBandwidth
}

// MaxTime returns the latest virtual time across the given processes (all
// live processes when none are specified).
func (c *Cluster) MaxTime(ids ...ProcID) float64 {
	if len(ids) == 0 {
		ids = c.LiveProcs()
	}
	var m float64
	for _, id := range ids {
		if ep := c.Endpoint(id); ep != nil {
			if t := ep.Clock.Now(); t > m {
				m = t
			}
		}
	}
	return m
}

// SyncClocks advances every listed process's clock to the group maximum
// (all live processes when none are specified) and returns that time.
// Harnesses use it at quiescent points between experiment phases.
func (c *Cluster) SyncClocks(ids ...ProcID) float64 {
	if len(ids) == 0 {
		ids = c.LiveProcs()
	}
	t := c.MaxTime(ids...)
	for _, id := range ids {
		if ep := c.Endpoint(id); ep != nil {
			ep.Clock.AdvanceTo(t)
		}
	}
	return t
}

// Broadcast delivers a control message from src to every live process
// except src itself. Used by higher layers for revocation-style floods
// when they need cluster-assisted fan-out in tests.
func (c *Cluster) LiveEndpoints() []*Endpoint {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Endpoint, 0, len(c.procs))
	for id, ep := range c.procs {
		if !c.deadProcs[id] {
			out = append(out, ep)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}
