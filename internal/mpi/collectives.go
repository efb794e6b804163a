package mpi

import "fmt"

// smallThreshold selects the latency-optimized (tree) allreduce for
// payloads at or below this many bytes; larger payloads use the
// bandwidth-optimal ring, as Horovod/NCCL do.
const smallThreshold = 64 << 10

// phases within a collective's tag space.
const (
	phReduceScatter = 0
	phAllgather     = 1
	phTree          = 2
	phBarrier       = 3
)

// --- generic public API -------------------------------------------------

// Allreduce reduces data elementwise across all ranks with op, leaving the
// identical result in data at every rank.
func Allreduce[T Number](c *Comm, data []T, op Op) error {
	return c.allreduce(numBuf[T]{v: data}, op)
}

// AllreduceVirtual performs an allreduce of a virtual payload of the given
// byte size: the full communication schedule runs (and is charged to the
// virtual clock), but no data is reduced. It simulates gradient tensors
// too large to materialize.
func AllreduceVirtual(c *Comm, bytes int64) error {
	return c.allreduce(virtBuf{bytes: bytes}, OpSum)
}

// Bcast broadcasts root's data to every rank (binomial tree).
func Bcast[T any](c *Comm, data []T, root int) error {
	return c.bcast(rawBuf[T]{v: data}, root)
}

// BcastVirtual broadcasts a virtual payload of the given byte size.
func BcastVirtual(c *Comm, bytes int64, root int) error {
	return c.bcast(virtBuf{bytes: bytes}, root)
}

// Allgather concatenates each rank's send block into recv at every rank.
// len(recv) must equal Size() * len(send), with uniform block sizes.
func Allgather[T any](c *Comm, send, recv []T) error {
	n := len(send)
	if len(recv) != n*c.Size() {
		return fmt.Errorf("mpi: allgather: recv length %d != %d*%d", len(recv), c.Size(), n)
	}
	copy(recv[c.rank*n:(c.rank+1)*n], send)
	return c.allgatherRing(rawBuf[T]{v: recv})
}

// Barrier blocks until all ranks arrive (dissemination algorithm).
func Barrier(c *Comm) error {
	seq := c.nextSeq() // reserve before any early return so SPMD seq stays aligned
	if err := c.checkCollective(); err != nil {
		return err
	}
	p, r := c.Size(), c.rank
	if p == 1 {
		return nil
	}
	scope := &opScope{comm: c, members: c.memberSet(), abortOnRevoke: true}
	c.p.begin(scope)
	defer c.p.end()
	for k := 1; k < p; k <<= 1 {
		tag := c.collTag(seq, phBarrier)
		if err := c.sendRaw((r+k)%p, tag, nil, 1); err != nil {
			return err
		}
		if _, err := c.recvRaw((r-k%p+p)%p, tag); err != nil {
			return err
		}
	}
	return nil
}

// --- algorithm implementations over buf ---------------------------------

// allreduce is Allreduce's static pick: the binomial tree at or below
// smallThreshold on the wire or with fewer elements than ranks, the
// ring above.
func (c *Comm) allreduce(b buf, op Op) error {
	if b.bytesFor(b.length()) > smallThreshold && b.length() >= c.Size() {
		return c.ringAllreduce(b, op, 1)
	}
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

	// Latency-optimized: binomial reduce to rank 0, binomial bcast.
	if err := c.reduceTree(b, op, 0, seq); err != nil {
		return err
	}
	markDistribute(b)
	return c.bcastTree(b, 0, seq)
}

func (c *Comm) bcast(b buf, root int) error {
	seq := c.nextSeq()
	if err := c.checkCollective(); err != nil {
		return err
	}
	if root < 0 || root >= c.Size() {
		return fmt.Errorf("mpi: bcast: invalid root %d", root)
	}
	if c.Size() == 1 {
		return nil
	}
	scope := &opScope{comm: c, members: c.memberSet(), abortOnRevoke: true}
	c.p.begin(scope)
	defer c.p.end()
	return c.bcastTree(b, root, seq)
}

// allgatherRing runs the ring's allgather half over b, each rank
// starting from its own block.
func (c *Comm) allgatherRing(b buf) error {
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
	rg := c.commRing()
	return c.allgather(b, rg, rg.idx, seq, 1)
}

// reduceTree: commutative binomial-tree reduction onto root.
func (c *Comm) reduceTree(b buf, op Op, root, seq int) error {
	p, n := c.Size(), b.length()
	vrank := (c.rank - root + p) % p
	tag := c.collTag(seq, phTree)
	for mask := 1; mask < p; mask <<= 1 {
		if vrank&mask != 0 {
			parent := ((vrank - mask) + root) % p
			return c.sendRaw(parent, tag, b.payload(0, n), b.bytesFor(n))
		}
		if vrank|mask < p {
			child := ((vrank | mask) + root) % p
			m, err := c.recvRaw(child, tag)
			if err != nil {
				return err
			}
			b.reduceIn(0, n, m.Data, op)
		}
	}
	return nil
}

// bcastTree: binomial-tree broadcast from root.
func (c *Comm) bcastTree(b buf, root, seq int) error {
	p, n := c.Size(), b.length()
	vrank := (c.rank - root + p) % p
	tag := c.collTag(seq, phTree)
	mask := 1
	for mask < p {
		if vrank&mask != 0 {
			parent := ((vrank - mask) + root) % p
			m, err := c.recvRaw(parent, tag)
			if err != nil {
				return err
			}
			b.setIn(0, n, m.Data)
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if vrank+mask < p {
			child := ((vrank + mask) + root) % p
			if err := c.sendRaw(child, tag, b.payload(0, n), b.bytesFor(n)); err != nil {
				return err
			}
		}
		mask >>= 1
	}
	return nil
}
