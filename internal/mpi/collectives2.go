package mpi

import (
	"fmt"

	"repro/internal/transport"
)

// Additional collectives and algorithm variants: reduce-scatter, alltoall,
// scan/exscan, and two alternative allreduce algorithms (recursive
// doubling, hierarchical) used by the algorithm-ablation benchmarks.

// phases for the extended collectives.
const (
	phScan       = 5
	phAlltoall   = 6
	phIntraRed   = 7
	phLeaderRing = 8 // and 9 for its allgather half
	phRecDouble  = 10
	phPairFix    = 11
	phIntraBcast = 12
)

// ReduceScatterBlock reduces data elementwise across ranks and leaves
// rank r with block r of the result in recv (len(data) must be
// Size()*len(recv)).
func ReduceScatterBlock[T Number](c *Comm, data []T, recv []T, op Op) error {
	n := len(recv)
	if len(data) != n*c.Size() {
		return fmt.Errorf("mpi: reduce-scatter: data length %d != %d*%d", len(data), c.Size(), n)
	}
	// Reuse the ring reduce-scatter over a scratch copy with uniform
	// bounds of n each. The ring leaves chunk (r+1)%p complete at r, so
	// a final exchange rotates every block to its owner.
	seq := c.nextSeq()
	if err := c.checkCollective(); err != nil {
		return err
	}
	if c.Size() == 1 {
		copy(recv, data)
		return nil
	}
	scope := &opScope{comm: c, members: c.memberSet(), abortOnRevoke: true}
	c.p.begin(scope)
	defer c.p.end()

	work := make([]T, len(data))
	copy(work, data)
	b := numBuf[T]{v: work}
	bounds := make([]int, c.Size()+1)
	for i := range bounds {
		bounds[i] = i * n
	}
	if err := c.reduceScatterRing(b, op, bounds, seq); err != nil {
		return err
	}
	// Rank r now holds chunk (r+1)%p; forward it to its owner.
	p, r := c.Size(), c.rank
	owner := (r + 1) % p
	tag := c.collTag(seq, phPairFix)
	if err := c.sendRaw(owner, tag, b.payload(bounds[owner], bounds[owner+1]), b.bytesFor(n)); err != nil {
		return err
	}
	m, err := c.recvRaw((r-1+p)%p, tag)
	if err != nil {
		return err
	}
	copy(recv, payloadAs[T](m.Data))
	return nil
}

// Alltoall exchanges fixed-size blocks: send holds Size() blocks of
// blockLen = len(send)/Size(); recv[i] ends up with rank i's block for us.
func Alltoall[T any](c *Comm, send, recv []T) error {
	p := c.Size()
	if len(send)%p != 0 || len(recv) != len(send) {
		return fmt.Errorf("mpi: alltoall: bad lengths send=%d recv=%d ranks=%d", len(send), len(recv), p)
	}
	seq := c.nextSeq()
	if err := c.checkCollective(); err != nil {
		return err
	}
	n := len(send) / p
	b := rawBuf[T]{v: send}
	copy(recv[c.rank*n:(c.rank+1)*n], send[c.rank*n:(c.rank+1)*n])
	if p == 1 {
		return nil
	}
	scope := &opScope{comm: c, members: c.memberSet(), abortOnRevoke: true}
	c.p.begin(scope)
	defer c.p.end()
	tag := c.collTag(seq, phAlltoall)
	// Pairwise rotation: at step s, send block for (rank+s)%p and receive
	// from (rank-s+p)%p.
	for s := 1; s < p; s++ {
		dst := (c.rank + s) % p
		src := (c.rank - s + p) % p
		out := b.payload(dst*n, (dst+1)*n)
		if err := c.sendRaw(dst, tag, out, b.bytesFor(n)); err != nil {
			return err
		}
		m, err := c.recvRaw(src, tag)
		if err != nil {
			return err
		}
		copy(recv[src*n:(src+1)*n], payloadAs[T](m.Data))
	}
	return nil
}

// Scan computes inclusive prefix reductions: rank r ends with
// op(data_0..data_r), using a latency-tolerant linear chain.
func Scan[T Number](c *Comm, data []T, op Op) error {
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
	b := numBuf[T]{v: data}
	tag := c.collTag(seq, phScan)
	if c.rank > 0 {
		m, err := c.recvRaw(c.rank-1, tag)
		if err != nil {
			return err
		}
		b.reduceIn(0, len(data), m.Data, op)
	}
	if c.rank < c.Size()-1 {
		if err := c.sendRaw(c.rank+1, tag, b.payload(0, len(data)), b.bytesFor(len(data))); err != nil {
			return err
		}
	}
	return nil
}

// Exscan computes exclusive prefix reductions: rank 0's buffer is left
// untouched (undefined in MPI; zeroed here), rank r>0 ends with
// op(data_0..data_{r-1}).
func Exscan[T Number](c *Comm, data []T, op Op) error {
	seq := c.nextSeq()
	if err := c.checkCollective(); err != nil {
		return err
	}
	if c.Size() == 1 {
		for i := range data {
			data[i] = 0
		}
		return nil
	}
	scope := &opScope{comm: c, members: c.memberSet(), abortOnRevoke: true}
	c.p.begin(scope)
	defer c.p.end()
	b := numBuf[T]{v: data}
	tag := c.collTag(seq, phScan)
	// Forward my inclusive prefix, then overwrite my buffer with the
	// received exclusive prefix.
	var inclusive any
	if c.rank == 0 {
		inclusive = b.payload(0, len(data))
	} else {
		m, err := c.recvRaw(c.rank-1, tag)
		if err != nil {
			return err
		}
		prev := payloadAs[T](m.Data)
		incl := make([]T, len(data))
		copy(incl, prev)
		reduceSlice(incl, data, op)
		inclusive = incl
		copy(data, prev)
	}
	if c.rank < c.Size()-1 {
		if err := c.sendRaw(c.rank+1, tag, inclusive, b.bytesFor(len(data))); err != nil {
			return err
		}
	}
	if c.rank == 0 {
		for i := range data {
			data[i] = 0
		}
	}
	return nil
}

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
