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
	phLinear        = 4
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

// Reduce reduces data elementwise onto root (binomial tree). Non-root
// buffers are left with partial results, as in MPI when reusing the send
// buffer.
func Reduce[T Number](c *Comm, data []T, op Op, root int) error {
	return c.reduce(numBuf[T]{v: data}, op, root)
}

// Allgather concatenates each rank's send block into recv at every rank.
// len(recv) must equal Size() * len(send), with uniform block sizes.
func Allgather[T any](c *Comm, send, recv []T) error {
	n := len(send)
	if len(recv) != n*c.Size() {
		return fmt.Errorf("mpi: allgather: recv length %d != %d*%d", len(recv), c.Size(), n)
	}
	bounds := make([]int, c.Size()+1)
	for i := range bounds {
		bounds[i] = i * n
	}
	copy(recv[c.rank*n:(c.rank+1)*n], send)
	return c.allgatherRing(rawBuf[T]{v: recv}, bounds)
}

// Allgatherv concatenates variable-length blocks; counts[i] is rank i's
// block length and len(recv) must equal the sum of counts.
func Allgatherv[T any](c *Comm, send []T, counts []int, recv []T) error {
	if len(counts) != c.Size() {
		return fmt.Errorf("mpi: allgatherv: got %d counts for %d ranks", len(counts), c.Size())
	}
	bounds := make([]int, c.Size()+1)
	for i, n := range counts {
		bounds[i+1] = bounds[i] + n
	}
	if len(send) != counts[c.rank] {
		return fmt.Errorf("mpi: allgatherv: send length %d != counts[%d]=%d", len(send), c.rank, counts[c.rank])
	}
	if len(recv) != bounds[c.Size()] {
		return fmt.Errorf("mpi: allgatherv: recv length %d != total %d", len(recv), bounds[c.Size()])
	}
	copy(recv[bounds[c.rank]:bounds[c.rank+1]], send)
	return c.allgatherRing(rawBuf[T]{v: recv}, bounds)
}

// AllgatherVirtual runs the allgather schedule for uniform virtual blocks
// of blockBytes each.
func AllgatherVirtual(c *Comm, blockBytes int64) error {
	bounds := make([]int, c.Size()+1)
	for i := range bounds {
		bounds[i] = i * int(blockBytes)
	}
	return c.allgatherRing(virtBuf{bytes: blockBytes * int64(c.Size())}, bounds)
}

// Gather collects each rank's send block at root (linear). recv is only
// written at root and must hold Size()*len(send) elements there.
func Gather[T any](c *Comm, send, recv []T, root int) error {
	return c.gather(rawBuf[T]{v: send}, rawBuf[T]{v: recv}, root)
}

// Scatter distributes root's send buffer in rank-order blocks of
// len(recv) elements (linear).
func Scatter[T any](c *Comm, send, recv []T, root int) error {
	return c.scatter(rawBuf[T]{v: send}, rawBuf[T]{v: recv}, root)
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

func (c *Comm) allreduce(b buf, op Op) error {
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

	if b.bytesFor(b.length()) <= smallThreshold || b.length() < c.Size() {
		// Latency-optimized: binomial reduce to rank 0, binomial bcast.
		if err := c.reduceTree(b, op, 0, seq); err != nil {
			return err
		}
		markDistribute(b)
		return c.bcastTree(b, 0, seq)
	}
	// Bandwidth-optimal ring: reduce-scatter then ring allgather, with
	// no markDistribute (see compress.go).
	bounds := evenBounds(b.length(), c.Size())
	if err := c.reduceScatterRing(b, op, bounds, seq); err != nil {
		return err
	}
	return c.ringAllgather(b, bounds, seq, true)
}

// allreduceRing is the explicit plain-ring allreduce (AlgoRing): the
// bandwidth-optimal reduce-scatter + allgather schedule with no
// small-payload tree shortcut, so benchmarks can pin the exact
// algorithm regardless of tensor size.
func (c *Comm) allreduceRing(b buf, op Op) error {
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
	bounds := evenBounds(b.length(), c.Size())
	if err := c.reduceScatterRing(b, op, bounds, seq); err != nil {
		return err
	}
	return c.ringAllgather(b, bounds, seq, true)
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

func (c *Comm) reduce(b buf, op Op, root int) error {
	seq := c.nextSeq()
	if err := c.checkCollective(); err != nil {
		return err
	}
	if root < 0 || root >= c.Size() {
		return fmt.Errorf("mpi: reduce: invalid root %d", root)
	}
	if c.Size() == 1 {
		return nil
	}
	scope := &opScope{comm: c, members: c.memberSet(), abortOnRevoke: true}
	c.p.begin(scope)
	defer c.p.end()
	return c.reduceTree(b, op, root, seq)
}

func (c *Comm) allgatherRing(b buf, bounds []int) error {
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
	return c.ringAllgather(b, bounds, seq, false)
}

func (c *Comm) gather(send, recv buf, root int) error {
	seq := c.nextSeq()
	if err := c.checkCollective(); err != nil {
		return err
	}
	scope := &opScope{comm: c, members: c.memberSet(), abortOnRevoke: true}
	c.p.begin(scope)
	defer c.p.end()

	n := send.length()
	tag := c.collTag(seq, phLinear)
	if c.rank != root {
		return c.sendRaw(root, tag, send.payload(0, n), send.bytesFor(n))
	}
	if recv.length() != n*c.Size() {
		return fmt.Errorf("mpi: gather: recv length %d != %d*%d", recv.length(), c.Size(), n)
	}
	recv.setIn(root*n, (root+1)*n, send.payload(0, n))
	for r := 0; r < c.Size(); r++ {
		if r == root {
			continue
		}
		m, err := c.recvRaw(r, tag)
		if err != nil {
			return err
		}
		recv.setIn(r*n, (r+1)*n, m.Data)
	}
	return nil
}

func (c *Comm) scatter(send, recv buf, root int) error {
	seq := c.nextSeq()
	if err := c.checkCollective(); err != nil {
		return err
	}
	scope := &opScope{comm: c, members: c.memberSet(), abortOnRevoke: true}
	c.p.begin(scope)
	defer c.p.end()

	n := recv.length()
	tag := c.collTag(seq, phLinear)
	if c.rank == root {
		if send.length() != n*c.Size() {
			return fmt.Errorf("mpi: scatter: send length %d != %d*%d", send.length(), c.Size(), n)
		}
		for r := 0; r < c.Size(); r++ {
			if r == root {
				recv.setIn(0, n, send.payload(root*n, (root+1)*n))
				continue
			}
			if err := c.sendRaw(r, tag, send.payload(r*n, (r+1)*n), send.bytesFor(n)); err != nil {
				return err
			}
		}
		return nil
	}
	m, err := c.recvRaw(root, tag)
	if err != nil {
		return err
	}
	recv.setIn(0, n, m.Data)
	return nil
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

// reduceScatterRing leaves chunk (rank+1)%p fully reduced in b at each
// rank after p-1 ring steps.
func (c *Comm) reduceScatterRing(b buf, op Op, bounds []int, seq int) error {
	p, r := c.Size(), c.rank
	right, left := (r+1)%p, (r-1+p)%p
	tag := c.collTag(seq, phReduceScatter)
	for step := 0; step < p-1; step++ {
		sc := (r - step + p) % p
		rc := (r - step - 1 + 2*p) % p
		lo, hi := bounds[sc], bounds[sc+1]
		if err := c.sendRaw(right, tag, b.payload(lo, hi), b.bytesFor(hi-lo)); err != nil {
			return err
		}
		m, err := c.recvRaw(left, tag)
		if err != nil {
			return err
		}
		lo, hi = bounds[rc], bounds[rc+1]
		b.reduceIn(lo, hi, m.Data, op)
	}
	return nil
}

// ringAllgather circulates complete chunks so every rank ends with all of
// them. When afterRS is true the starting chunk at rank r is (r+1)%p (the
// chunk completed by reduceScatterRing); otherwise it is r (plain
// allgather of own block).
func (c *Comm) ringAllgather(b buf, bounds []int, seq int, afterRS bool) error {
	p, r := c.Size(), c.rank
	right, left := (r+1)%p, (r-1+p)%p
	start := r
	if afterRS {
		start = (r + 1) % p
	}
	tag := c.collTag(seq, phAllgather)
	rl := relayOf(b)
	defer rl.drop()
	for step := 0; step < p-1; step++ {
		sc := (start - step + 2*p) % p
		rc := (start - step - 1 + 2*p) % p
		lo, hi := bounds[sc], bounds[sc+1]
		if err := rl.send(c, right, tag, 0, lo, hi); err != nil {
			return err
		}
		m, err := c.recvRaw(left, tag)
		if err != nil {
			return err
		}
		lo, hi = bounds[rc], bounds[rc+1]
		rl.recv(0, lo, hi, m.Data, step < p-2)
	}
	return nil
}

// forwarder is a buffer whose ring-allgather chunks travel on as
// received (compBuf; see "Forwarding" in compress.go). Chunk slot k is
// the chunk's index among the K a step moves.
type forwarder interface {
	hold(k, lo, hi int, pay any) // setIn, keeping pay for the next step
	forward(k int) any           // slot k's held payload, or nil
	release(k int)               // after slot k's forwarding send returns
	drop()                       // on every exit of the allgather
}

// relay runs a ring allgather's chunk traffic over b. A forwarder holds
// each received chunk until its forwarding send returns; any other
// buffer re-reads the tensor for every send and releases received
// chunks at once.
type relay struct {
	b  buf
	fw forwarder // nil: b does not forward
}

func relayOf(b buf) relay {
	fw, _ := b.(forwarder)
	return relay{b: b, fw: fw}
}

// send sends chunk slot k, [lo,hi): the chunk received one step earlier
// if the buffer holds it, else the range read from the tensor (the
// rank's own segment at step 0). Re-reading a range the allgather
// decoded sends the same bits, since quantizing is idempotent.
func (r relay) send(c *Comm, to, tag, k, lo, hi int) error {
	var pay any
	if r.fw != nil {
		pay = r.fw.forward(k)
	}
	if pay == nil {
		pay = r.b.payload(lo, hi)
	}
	err := c.sendRaw(to, tag, pay, r.b.bytesFor(hi-lo))
	if r.fw != nil {
		r.fw.release(k)
	}
	return err
}

// recv stores chunk slot k's received payload in [lo,hi); keep holds it
// for the next step's send (false on the last step).
func (r relay) recv(k, lo, hi int, pay any, keep bool) {
	if r.fw != nil && keep {
		r.fw.hold(k, lo, hi, pay)
		return
	}
	r.b.setIn(lo, hi, pay)
}

// drop releases whatever the relay still holds.
func (r relay) drop() {
	if r.fw != nil {
		r.fw.drop()
	}
}

// evenBounds splits n elements into p nearly equal contiguous chunks.
func evenBounds(n, p int) []int {
	bounds := make([]int, p+1)
	for i := 0; i <= p; i++ {
		bounds[i] = i * n / p
	}
	return bounds
}
