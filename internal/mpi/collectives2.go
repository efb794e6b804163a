package mpi

import (
	"fmt"

	"repro/internal/transport"
)

// Two alternative allreduce algorithms (recursive doubling,
// hierarchical) used by the algorithm-ablation benchmarks.

// phases for the allreduce variants, clear of those in collectives.go.
const (
	phIntraRed   = 7
	phLeaderRing = 8 // and 9 for its allgather half
	phRecDouble  = 10
	phPairFix    = 11
	phIntraBcast = 12
)

// AllreduceRecursiveDoubling is the latency-optimal allreduce variant
// (log2 p rounds of pairwise exchange), with the standard pre/post phase
// folding extra ranks into a power-of-two group. Exposed for the
// algorithm-ablation benchmarks; Allreduce picks ring or tree
// automatically.
func AllreduceRecursiveDoubling[T Number](c *Comm, data []T, op Op) error {
	return c.allreduceRecDouble(numBuf[T]{v: data}, op)
}

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

// AllreduceHierarchical reduces within each node to a leader, runs a ring
// allreduce among the node leaders, then broadcasts within each node —
// the topology-aware schedule Horovod/NCCL use across multi-GPU nodes.
func AllreduceHierarchical[T Number](c *Comm, data []T, op Op) error {
	return c.allreduceHier(numBuf[T]{v: data}, op)
}

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
		// Phase 2: ring allreduce among leaders.
		if len(leaders) > 1 {
			myIdx := -1
			for i, l := range leaders {
				if l == c.rank {
					myIdx = i
				}
			}
			bounds := evenBounds(n, len(leaders))
			if err := c.ringAmong(b, op, leaders, myIdx, bounds, seq); err != nil {
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

// ringAmong runs the ring reduce-scatter + allgather over an arbitrary
// subset of ranks (the node leaders), indexed by idx within members.
func (c *Comm) ringAmong(b buf, op Op, members []int, idx int, bounds []int, seq int) error {
	p := len(members)
	right := members[(idx+1)%p]
	left := members[(idx-1+p)%p]
	tagRS := c.collTag(seq, phLeaderRing)
	tagAG := c.collTag(seq, phLeaderRing+1)
	for step := 0; step < p-1; step++ {
		sc := (idx - step + p) % p
		rc := (idx - step - 1 + 2*p) % p
		lo, hi := bounds[sc], bounds[sc+1]
		if err := c.sendRaw(right, tagRS, b.payload(lo, hi), b.bytesFor(hi-lo)); err != nil {
			return err
		}
		m, err := c.recvRaw(left, tagRS)
		if err != nil {
			return err
		}
		lo, hi = bounds[rc], bounds[rc+1]
		b.reduceIn(lo, hi, m.Data, op)
	}
	// Allgather half: completed segments circulate unchanged.
	markDistribute(b)
	start := (idx + 1) % p
	for step := 0; step < p-1; step++ {
		sc := (start - step + 2*p) % p
		rc := (start - step - 1 + 2*p) % p
		lo, hi := bounds[sc], bounds[sc+1]
		if err := c.sendRaw(right, tagAG, b.payload(lo, hi), b.bytesFor(hi-lo)); err != nil {
			return err
		}
		m, err := c.recvRaw(left, tagAG)
		if err != nil {
			return err
		}
		lo, hi = bounds[rc], bounds[rc+1]
		b.setIn(lo, hi, m.Data)
	}
	return nil
}
