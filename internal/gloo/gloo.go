// Package gloo reimplements the baseline CPU collective library Elastic
// Horovod uses: contexts are bootstrapped through a KV-store rendezvous
// followed by a full-mesh connection setup, collectives run on rings, and
// — crucially for the paper's comparison — there is no fault tolerance:
// any process failure poisons the whole context, and the only recovery is
// to tear everything down and re-run the rendezvous from scratch, which
// costs O(n) KV operations plus O(n) reconnections per rank.
package gloo

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/kvstore"
	"repro/internal/simnet"
	"repro/internal/vtime"
)

// ErrPoisoned is returned by operations on a context that observed a
// failure. The context cannot be repaired.
var ErrPoisoned = errors.New("gloo: context is poisoned (peer failure)")

// Config is the library's cost model.
type Config struct {
	// ConnectCost is the per-pair connection handshake cost beyond the
	// message latency (TCP setup, store exchange of endpoints).
	ConnectCost float64
	// FailureTimeout models Gloo's unsuccessful-operation timeout: the
	// delay before a blocked operation surfaces a peer failure as an
	// exception to the caller.
	FailureTimeout float64
}

// DefaultConfig mirrors Gloo-over-TCP defaults at LAN latencies; the
// failure timeout is the dominant part of Elastic Horovod's
// "catching exception" phase.
func DefaultConfig() Config {
	return Config{
		ConnectCost:    0.4e-3,
		FailureTimeout: 2.0,
	}
}

// Context is a Gloo communication context over an ordered set of
// processes. It is a per-rank object.
type Context struct {
	cfg      Config
	ep       *simnet.Endpoint
	kv       *kvstore.Store
	rank     int
	size     int
	procs    []simnet.ProcID
	round    int
	poisoned bool
	charged  bool // failure timeout charged once per context
	opSeq    int
	prevCtl  simnet.CtlHandler
}

// tag space: gloo tags stay below 1<<31 and above the mpi comm tag floor
// by construction (mpi tags carry a context id in bits 32+).
func (c *Context) tag(seq, phase int) int {
	return (c.round&0xffff)<<14 | (seq&0x3ff)<<4 | (phase & 0xf)
}

// Connect runs the rendezvous for the given round and builds the context.
// Every participating process calls it with its rank and the common size:
//  1. publish rank -> process id in the store (1 put),
//  2. wait until all `size` entries exist (polling wait),
//  3. read the membership (list) and handshake with every peer
//     (full mesh: size-1 connects).
//
// This is the expensive path the paper measures as "re-initializing Gloo"
// plus "rendezvous": every reconfiguration repeats it with a new round.
func Connect(ep *simnet.Endpoint, kv *kvstore.Store, cfg Config, round, rank, size int) (*Context, error) {
	return ConnectCancel(ep, kv, cfg, round, rank, size, nil)
}

// ConnectCancel is Connect with an external cancellation channel: closing
// it aborts a rendezvous blocked on participants that will never arrive
// (e.g. one died before publishing its address). The returned error wraps
// ErrPoisoned so callers re-plan, as Elastic Horovod's driver does when a
// rendezvous times out.
func ConnectCancel(ep *simnet.Endpoint, kv *kvstore.Store, cfg Config, round, rank, size int, cancel <-chan struct{}) (*Context, error) {
	if size <= 0 || rank < 0 || rank >= size {
		return nil, fmt.Errorf("gloo: invalid rank/size %d/%d", rank, size)
	}
	c := &Context{cfg: cfg, ep: ep, kv: kv, rank: rank, size: size, round: round}
	// Install the failure handler before any blocking step: a death notice
	// consumed while un-handled would be lost, and with it the only wakeup
	// for receives posted against live-but-stalled peers. Deaths observed
	// before the membership is known are buffered (they may be stale
	// notices about processes outside this context — e.g. the failure that
	// triggered this re-rendezvous) and re-evaluated once the membership
	// arrives.
	var earlyDeaths []simnet.ProcID
	c.prevCtl = ep.CtlHandler()
	ep.SetCtlHandler(func(m *simnet.Message) error {
		if m.Tag != simnet.CtlPeerDown || c.poisoned {
			return nil
		}
		if c.procs == nil {
			earlyDeaths = append(earlyDeaths, m.From)
			return nil
		}
		if !c.member(m.From) {
			return nil
		}
		c.poisoned = true
		return &simnet.PeerFailedError{Proc: m.From}
	})

	prefix := fmt.Sprintf("gloo/%d/", round)
	kv.Put(&ep.Clock, prefix+key(rank), []byte(strconv.Itoa(int(ep.ID()))))
	wait, stop := mergeCancels(ep.Done(), cancel)
	defer stop()
	keys, ok := kv.WaitN(&ep.Clock, prefix, size, wait)
	if !ok {
		ep.SetCtlHandler(c.prevCtl)
		if ep.Closed() {
			return nil, fmt.Errorf("gloo: rendezvous %d canceled: %w", round, simnet.ErrDead)
		}
		return nil, fmt.Errorf("gloo: rendezvous %d canceled: %w", round, ErrPoisoned)
	}
	procs := make([]simnet.ProcID, size)
	for _, k := range keys {
		r, err := strconv.Atoi(strings.TrimPrefix(k, prefix))
		if err != nil || r < 0 || r >= size {
			ep.SetCtlHandler(c.prevCtl)
			return nil, fmt.Errorf("gloo: malformed rendezvous key %q", k)
		}
		v, found := kv.Get(&ep.Clock, k)
		if !found {
			ep.SetCtlHandler(c.prevCtl)
			return nil, fmt.Errorf("gloo: rendezvous key %q vanished", k)
		}
		pid, err := strconv.Atoi(string(v))
		if err != nil {
			ep.SetCtlHandler(c.prevCtl)
			return nil, fmt.Errorf("gloo: malformed rendezvous value %q", v)
		}
		procs[r] = simnet.ProcID(pid)
	}
	c.procs = procs
	for _, d := range earlyDeaths {
		if c.member(d) {
			return nil, c.fail(&simnet.PeerFailedError{Proc: d})
		}
	}

	// Full-mesh handshake: send HELLO to every peer, await each HELLO.
	hello := c.tag(0, 0xf)
	for r := 0; r < size; r++ {
		if r == rank {
			continue
		}
		if err := ep.Send(procs[r], hello, nil, 16); err != nil {
			return nil, c.fail(err)
		}
	}
	for r := 0; r < size; r++ {
		if r == rank {
			continue
		}
		if _, err := ep.Recv(procs[r], hello); err != nil {
			return nil, c.fail(err)
		}
		ep.Clock.Advance(cfg.ConnectCost)
	}
	return c, nil
}

// member reports whether a process belongs to this context.
func (c *Context) member(p simnet.ProcID) bool {
	for _, pr := range c.procs {
		if pr == p {
			return true
		}
	}
	return false
}

// key formats a rendezvous key with stable lexicographic order.
func key(rank int) string { return fmt.Sprintf("%06d", rank) }

// Close releases the context (restores the endpoint's control handler and
// clears this round's rendezvous keys at rank 0).
func (c *Context) Close() {
	c.ep.SetCtlHandler(c.prevCtl)
	if c.rank == 0 {
		c.kv.DeletePrefix(&c.ep.Clock, fmt.Sprintf("gloo/%d/", c.round))
	}
}

// Clock returns the owning process's virtual clock.
func (c *Context) Clock() *vtime.Clock { return &c.ep.Clock }

// Endpoint returns the owning process's endpoint.
func (c *Context) Endpoint() *simnet.Endpoint { return c.ep }

// Rank returns the caller's rank.
func (c *Context) Rank() int { return c.rank }

// Size returns the context's rank count.
func (c *Context) Size() int { return c.size }

// Round returns the rendezvous round that built this context.
func (c *Context) Round() int { return c.round }

// Poisoned reports whether a member failure has been observed.
func (c *Context) Poisoned() bool { return c.poisoned }

// fail records a fatal transport error: the context is poisoned, and the
// caller is charged the failure-detection timeout (Gloo surfaces failures
// through unsuccessful-operation timeouts, not a prompt detector).
func (c *Context) fail(err error) error {
	c.poisoned = true
	if !c.charged {
		c.charged = true
		c.ep.Clock.Advance(c.cfg.FailureTimeout)
	}
	if _, ok := simnet.IsPeerFailed(err); ok {
		return fmt.Errorf("%w: %v", ErrPoisoned, err)
	}
	return err
}

func (c *Context) check() error {
	if err := c.ep.PollCtl(); err != nil {
		return c.fail(err)
	}
	if c.poisoned {
		return ErrPoisoned
	}
	return nil
}

// Allreduce sums data elementwise across all ranks (ring algorithm).
func (c *Context) Allreduce(data []float32) error {
	return c.allreduce(realChunks(data), int64(4))
}

// AllreduceVirtual runs the ring allreduce schedule for a virtual payload
// of the given byte size.
func (c *Context) AllreduceVirtual(bytes int64) error {
	return c.allreduce(virtChunks(bytes), 1)
}

// BcastVirtual runs the chain-broadcast schedule for a virtual payload of
// the given byte size.
func (c *Context) BcastVirtual(bytes int64, root int) error {
	if err := c.check(); err != nil {
		return err
	}
	seq := c.next()
	if c.size == 1 {
		return nil
	}
	tag := c.tag(seq, 1)
	me := (c.rank - root + c.size) % c.size
	if me > 0 {
		if _, err := c.ep.Recv(c.procs[(c.rank-1+c.size)%c.size], tag); err != nil {
			return c.fail(err)
		}
	}
	if me < c.size-1 {
		if err := c.ep.Send(c.procs[(c.rank+1)%c.size], tag, nil, bytes); err != nil {
			return c.fail(err)
		}
	}
	return nil
}

// Bcast broadcasts root's buffer to all ranks over a chain pipeline (the
// simple algorithm Gloo uses for large buffers).
func (c *Context) Bcast(data []float32, root int) error {
	if err := c.check(); err != nil {
		return err
	}
	seq := c.next()
	if c.size == 1 {
		return nil
	}
	tag := c.tag(seq, 1)
	// Chain: root -> root+1 -> ... (mod size).
	me := (c.rank - root + c.size) % c.size
	if me > 0 {
		m, err := c.ep.Recv(c.procs[(c.rank-1+c.size)%c.size], tag)
		if err != nil {
			return c.fail(err)
		}
		if d, ok := m.Data.([]float32); ok {
			copy(data, d)
		}
	}
	if me < c.size-1 {
		if err := c.ep.Send(c.procs[(c.rank+1)%c.size], tag, data, int64(len(data))*4); err != nil {
			return c.fail(err)
		}
	}
	return nil
}

func (c *Context) next() int {
	c.opSeq++
	return c.opSeq
}

// chunkBuf abstracts real vs virtual ring payloads.
type chunkBuf interface {
	length() int
	slice(lo, hi int) any // [lo,hi) for sending, valid until Send returns
	addIn(lo, hi int, pay any)
	setIn(lo, hi int, pay any)
}

type realBuf struct{ v []float32 }

func realChunks(v []float32) chunkBuf { return realBuf{v: v} }

func (b realBuf) length() int          { return len(b.v) }
func (b realBuf) slice(lo, hi int) any { return b.v[lo:hi:hi] }
func (b realBuf) addIn(lo, hi int, pay any) {
	in := pay.([]float32)
	dst := b.v[lo:hi]
	for i := range dst {
		dst[i] += in[i]
	}
}
func (b realBuf) setIn(lo, hi int, pay any) {
	copy(b.v[lo:hi], pay.([]float32))
}

type virtB struct{ n int }

func virtChunks(bytes int64) chunkBuf { return virtB{n: int(bytes)} }

func (b virtB) length() int             { return b.n }
func (b virtB) slice(lo, hi int) any    { return nil }
func (b virtB) addIn(lo, hi int, p any) {}
func (b virtB) setIn(lo, hi int, p any) {}

// allreduce is the ring reduce-scatter + allgather, elemBytes per element.
func (c *Context) allreduce(b chunkBuf, elemBytes int64) error {
	if err := c.check(); err != nil {
		return err
	}
	seq := c.next()
	p, r := c.size, c.rank
	if p == 1 {
		return nil
	}
	n := b.length()
	bounds := make([]int, p+1)
	for i := 0; i <= p; i++ {
		bounds[i] = i * n / p
	}
	right, left := c.procs[(r+1)%p], c.procs[(r-1+p)%p]
	tagRS, tagAG := c.tag(seq, 2), c.tag(seq, 3)
	for step := 0; step < p-1; step++ {
		sc := (r - step + p) % p
		rc := (r - step - 1 + 2*p) % p
		lo, hi := bounds[sc], bounds[sc+1]
		if err := c.ep.Send(right, tagRS, b.slice(lo, hi), int64(hi-lo)*elemBytes); err != nil {
			return c.fail(err)
		}
		m, err := c.ep.Recv(left, tagRS)
		if err != nil {
			return c.fail(err)
		}
		lo, hi = bounds[rc], bounds[rc+1]
		b.addIn(lo, hi, m.Data)
	}
	for step := 0; step < p-1; step++ {
		sc := (r + 1 - step + 2*p) % p
		rc := (r - step + 2*p) % p
		lo, hi := bounds[sc], bounds[sc+1]
		if err := c.ep.Send(right, tagAG, b.slice(lo, hi), int64(hi-lo)*elemBytes); err != nil {
			return c.fail(err)
		}
		m, err := c.ep.Recv(left, tagAG)
		if err != nil {
			return c.fail(err)
		}
		lo, hi = bounds[rc], bounds[rc+1]
		b.setIn(lo, hi, m.Data)
	}
	return nil
}

// mergeCancels returns a channel closed when either input closes (nil
// inputs are ignored; both nil yields nil). The caller calls stop once it
// no longer waits: it ends the merging goroutine when neither input ever
// closes, as on every rendezvous that completes.
func mergeCancels(a, b <-chan struct{}) (merged <-chan struct{}, stop func()) {
	if a == nil {
		return b, func() {}
	}
	if b == nil {
		return a, func() {}
	}
	out, quit := make(chan struct{}), make(chan struct{})
	go func() {
		select {
		case <-a:
		case <-b:
		case <-quit:
		}
		close(out)
	}()
	return out, func() { close(quit) }
}
