package mpi

import (
	"fmt"
	"slices"

	"repro/internal/transport"
)

// Two alternative allreduce algorithms (recursive doubling,
// hierarchical) used by the algorithm-ablation benchmarks, selected by
// AlgoRecursiveDoubling and AlgoHierarchical.

// phases for the allreduce variants, clear of those in collectives.go.
const (
	phIntraRed   = 7
	phRecDouble  = 10
	phPairFix    = 11
	phIntraBcast = 12
)

// allreduceRecDouble is the latency-optimal allreduce variant (log2 p
// rounds of pairwise exchange), with the standard pre/post phase
// folding extra ranks into a power-of-two group.
func (c *Comm) allreduceRecDouble(b buf, op Op) error {
	seq := c.nextSeq()
	if err := c.checkCollective(); err != nil {
		return err
	}
	p := c.Size()
	if p == 1 {
		return nil
	}
	scope := &opScope{comm: c, members: c.memberSet(), abortOnRevoke: true}
	c.p.begin(scope)
	defer c.p.end()

	n := b.length()
	tag := c.collTag(seq, phRecDouble)
	fixTag := c.collTag(seq, phPairFix)

	pow2 := 1
	for pow2*2 <= p {
		pow2 *= 2
	}
	rem := p - pow2
	r := c.rank

	// Pre-phase: ranks [0, 2*rem) pair up; evens send to odds and sit out.
	var vrank int
	switch {
	case r < 2*rem && r%2 == 0:
		if err := c.sendRaw(r+1, fixTag, b.payload(0, n), b.bytesFor(n)); err != nil {
			return err
		}
		vrank = -1
	case r < 2*rem:
		m, err := c.recvRaw(r-1, fixTag)
		if err != nil {
			return err
		}
		b.reduceIn(0, n, m.Data, op)
		vrank = r / 2
	default:
		vrank = r - rem
	}

	if vrank >= 0 {
		toRank := func(v int) int {
			if v < rem {
				return 2*v + 1
			}
			return v + rem
		}
		for mask := 1; mask < pow2; mask <<= 1 {
			partner := toRank(vrank ^ mask)
			if err := c.sendRaw(partner, tag, b.payload(0, n), b.bytesFor(n)); err != nil {
				return err
			}
			m, err := c.recvRaw(partner, tag)
			if err != nil {
				return err
			}
			b.reduceIn(0, n, m.Data, op)
		}
	}

	// Post-phase: odds return the finished result to their even partners —
	// a distribution-direction send.
	markDistribute(b)
	switch {
	case r < 2*rem && r%2 == 0:
		m, err := c.recvRaw(r+1, fixTag)
		if err != nil {
			return err
		}
		b.setIn(0, n, m.Data)
	case r < 2*rem:
		if err := c.sendRaw(r-1, fixTag, b.payload(0, n), b.bytesFor(n)); err != nil {
			return err
		}
	}
	return nil
}

// allreduceHier reduces within each node to a leader, runs the ring
// allreduce among the node leaders, then broadcasts within each node —
// the topology-aware schedule Horovod/NCCL use across multi-GPU nodes.
func (c *Comm) allreduceHier(b buf, op Op) error {
	seq := c.nextSeq()
	if err := c.checkCollective(); err != nil {
		return err
	}
	if c.Size() == 1 {
		return nil
	}
	scope := &opScope{comm: c, members: c.memberSet(), abortOnRevoke: true}
	c.p.begin(scope)
	defer c.p.end()

	n := b.length()

	// Group ranks by node, deterministically. Placement comes from the
	// transport's optional Locator capability; backends without placement
	// knowledge (e.g. tcpnet) get a flat topology — every rank its own
	// node — which degenerates to the plain leader-ring allreduce. All
	// ranks run the same backend, so the grouping stays SPMD-consistent.
	loc, _ := c.p.ep.(transport.Locator)
	nodeOf := make([]transport.NodeID, c.Size())
	for r, pr := range c.procs {
		if loc == nil {
			nodeOf[r] = transport.NodeID(r)
			continue
		}
		node, err := loc.NodeOf(pr)
		if err != nil {
			return fmt.Errorf("mpi: hierarchical allreduce: %w", err)
		}
		nodeOf[r] = node
	}
	var myPeers []int // ranks on my node, ascending; leader = first
	var leaders []int // one leader per node, in first-appearance order
	seen := map[transport.NodeID]bool{}
	for r := 0; r < c.Size(); r++ {
		if nodeOf[r] == nodeOf[c.rank] {
			myPeers = append(myPeers, r)
		}
		if !seen[nodeOf[r]] {
			seen[nodeOf[r]] = true
			leaders = append(leaders, r)
		}
	}
	leader := myPeers[0]
	redTag := c.collTag(seq, phIntraRed)
	bcTag := c.collTag(seq, phIntraBcast)

	// Phase 1: intra-node reduce to the leader (linear fan-in; node widths
	// are small).
	if c.rank != leader {
		if err := c.sendRaw(leader, redTag, b.payload(0, n), b.bytesFor(n)); err != nil {
			return err
		}
	} else {
		for _, peer := range myPeers[1:] {
			m, err := c.recvRaw(peer, redTag)
			if err != nil {
				return err
			}
			b.reduceIn(0, n, m.Data, op)
		}
		// Phase 2: ring allreduce among leaders, in leader order. The
		// allgather half carries finished segments.
		if p := len(leaders); p > 1 {
			rg := ring{p: p, idx: slices.Index(leaders, c.rank)}
			rg.left, rg.right = leaders[(rg.idx-1+p)%p], leaders[(rg.idx+1)%p]
			if err := c.reduceScatter(b, op, rg, seq, 1); err != nil {
				return err
			}
			markDistribute(b)
			if err := c.allgather(b, rg, (rg.idx+1)%p, seq, 1); err != nil {
				return err
			}
		}
		// Phase 3: intra-node broadcast from the leader. The result is
		// final from here on — distribution-direction sends.
		markDistribute(b)
		for _, peer := range myPeers[1:] {
			if err := c.sendRaw(peer, bcTag, b.payload(0, n), b.bytesFor(n)); err != nil {
				return err
			}
		}
		return nil
	}
	m, err := c.recvRaw(leader, bcTag)
	if err != nil {
		return err
	}
	b.setIn(0, n, m.Data)
	return nil
}
