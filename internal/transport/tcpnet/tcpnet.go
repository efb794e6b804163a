// Package tcpnet is the real-socket backend of the transport abstraction:
// each process owns one Endpoint that listens on a TCP address, dials
// peers on demand with retry/backoff, and exchanges length-prefixed binary
// frames whose payloads are serialized with the transport wire codec.
//
// The endpoint reproduces the simulator's mailbox semantics exactly —
// tag/source matching, control-message drains through the installed
// handler, deliverable-data-over-failure-notice priority — so the MPI
// layer's collectives and ULFM recovery pipeline run unchanged over it.
//
// Failure detection is split in two, as in production stacks: connection
// errors surface immediately to the affected sender (the Gloo-style
// cascade of resets), while authoritative declarations come from the
// rendezvous service's wall-clock heartbeat detector, which the process
// feeds into MarkDead to trigger the same CtlPeerDown control path the
// simulator's perfect detector exercises. The declaration outranks the
// local reading: a sender still retrying toward the declared peer stops
// the moment MarkDead runs, wherever it is waiting.
package tcpnet

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/transport"
	"repro/internal/vtime"
)

// Config tunes an endpoint's connection management and framing limits.
type Config struct {
	// MaxFrame bounds a frame body (header + encoded payload); oversized
	// sends fail and oversized incoming length prefixes drop the
	// connection. Default DefaultMaxFrame.
	MaxFrame int
	// DialTimeout bounds each dial attempt. Default 2s.
	DialTimeout time.Duration
	// DialRetries is how many times a failed dial or write is retried
	// (with exponential backoff) before the peer is reported failed.
	// Default 5.
	DialRetries int
	// DialBackoff is the initial retry backoff, doubling per attempt.
	// Default 50ms.
	DialBackoff time.Duration
	// WrapConn, if set, wraps every connection the endpoint creates —
	// dialed (dialed=true) and accepted (dialed=false) — before any frame
	// traffic flows. The fault-injection harness uses it to sever
	// connections mid-frame; production configs leave it nil.
	WrapConn func(conn net.Conn, dialed bool) net.Conn
	// ZeroCopyMin is the payload size, in encoded bytes, at which the
	// endpoint switches to its zero-copy paths: sends go scatter-gather
	// via net.Buffers (writev) straight from the caller's slice, and
	// received raw payloads are delivered lazily (transport.RawPayload)
	// for in-place consumption instead of being decoded into a fresh
	// slice. Below the threshold the pooled contiguous paths win — a
	// writev of two tiny iovecs costs more than one memcpy. 0 means
	// DefaultZeroCopyMin; negative disables both zero-copy paths.
	ZeroCopyMin int
}

// DefaultZeroCopyMin is the default payload size at which sends switch
// to writev and receives deliver lazy in-place payloads.
const DefaultZeroCopyMin = 16 << 10

func (c Config) withDefaults() Config {
	if c.MaxFrame <= 0 {
		c.MaxFrame = DefaultMaxFrame
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.DialRetries <= 0 {
		c.DialRetries = 5
	}
	if c.DialBackoff <= 0 {
		c.DialBackoff = 50 * time.Millisecond
	}
	if c.ZeroCopyMin == 0 {
		c.ZeroCopyMin = DefaultZeroCopyMin
	}
	return c
}

// Endpoint implements the transport abstraction over real sockets.
var _ transport.Endpoint = (*Endpoint)(nil)

// writeBufSize sizes each peer connection's buffered writer: large enough
// to coalesce a burst of small control frames into one segment, small
// enough that bulk frames bypass the buffer entirely (bufio writes
// oversized payloads straight through).
const writeBufSize = 64 << 10

// peer is the dial-side state for one remote process. It has one
// cancellation signal and two locks with two jobs. ctx derives from the
// endpoint's: MarkDead cancels it, Close cancels them all, and every wait
// on the send path — back-off, dial, write — ends when it fires. wmu
// serializes writers and is held for a whole Send, dial and back-off
// included, so nothing that must not wait ever takes it. mu only
// publishes the live connection and is never held across I/O, which is
// what lets MarkDead and Close close the connection underneath a writer
// blocked in write(2).
type peer struct {
	addr   string
	ctx    context.Context
	cancel context.CancelFunc

	wmu sync.Mutex // serializes writers; guards bw and everConnected
	// bw buffers writes to the live connection (flushed at message
	// boundaries, so a frame never straddles an unflushed buffer when
	// Send returns).
	bw *bufio.Writer
	// everConnected distinguishes a first dial from a reconnect after a
	// working connection was lost (the reconnects metric).
	everConnected bool

	mu   sync.Mutex // guards conn; never held across I/O
	conn net.Conn
}

// drop unpublishes the live connection, if any, and closes it. Whoever
// unpublishes it closes it, so a writer dropping a broken connection and
// a shut racing it close it exactly once.
func (p *peer) drop() {
	p.mu.Lock()
	conn := p.conn
	p.conn = nil
	p.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
}

// publish makes conn the live connection, unless the peer was cancelled
// while it was being dialed: shut cancels before it drops, so a
// connection published after the cancel would never be closed.
func (p *peer) publish(conn net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ctx.Err() != nil {
		return false
	}
	p.conn = conn
	return true
}

// shut cancels the peer for good and closes its connection, releasing a
// sender wherever it waits. It takes no lock a sender holds while
// waiting, so it cannot block behind one.
func (p *peer) shut() {
	p.cancel()
	p.drop()
}

// Endpoint is a process's TCP attachment: listener, mailbox, peer table,
// and identity. Recv/TryRecv/PollCtl/Send must be called from the owning
// process's goroutine, as on the simulator endpoint; MarkDead, deliver,
// and Close are safe from any goroutine.
type Endpoint struct {
	cfg   Config
	ln    net.Listener
	epoch time.Time
	clock vtime.Clock

	// ctx is cancelled by Close; every peer's context derives from it.
	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	cond   *sync.Cond
	id     transport.ProcID
	queue  []*transport.Message
	closed bool
	ctl    transport.CtlHandler
	peers  map[transport.ProcID]*peer
	dead   map[transport.ProcID]bool
	conns  map[net.Conn]bool // accepted inbound connections, for shutdown

	wg sync.WaitGroup
}

// Listen opens an endpoint on addr (host:port; use port 0 for an
// ephemeral port, then read the bound address back with Addr). The
// endpoint's identity and peer table are bound later with Start, once the
// rendezvous service has assigned them.
func Listen(addr string, cfg Config) (*Endpoint, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcpnet: listen %s: %w", addr, err)
	}
	e := &Endpoint{
		cfg:   cfg.withDefaults(),
		ln:    ln,
		epoch: time.Now(),
		id:    -1,
		peers: make(map[transport.ProcID]*peer),
		dead:  make(map[transport.ProcID]bool),
		conns: make(map[net.Conn]bool),
	}
	e.ctx, e.cancel = context.WithCancel(context.Background())
	e.cond = sync.NewCond(&e.mu)
	e.wg.Add(1)
	go e.acceptLoop()
	return e, nil
}

// Addr returns the bound listen address (resolved, usable by peers).
func (e *Endpoint) Addr() string { return e.ln.Addr().String() }

// Start binds the endpoint's identity and peer address map, as assigned
// by the rendezvous service. The self entry, if present, is ignored.
// Start may be called again later to add newly admitted peers; existing
// entries are kept.
func (e *Endpoint) Start(id transport.ProcID, peers map[transport.ProcID]string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.id = id
	for pid, addr := range peers {
		if pid == id {
			continue
		}
		if _, ok := e.peers[pid]; !ok {
			p := &peer{addr: addr}
			p.ctx, p.cancel = context.WithCancel(e.ctx)
			e.peers[pid] = p
		}
	}
}

// ID returns the process identifier (-1 before Start).
func (e *Endpoint) ID() transport.ProcID {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.id
}

// Done returns a channel closed when the endpoint shuts down.
func (e *Endpoint) Done() <-chan struct{} { return e.ctx.Done() }

// Closed reports whether the endpoint has been shut down.
func (e *Endpoint) Closed() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.closed
}

// SetCtlHandler installs the control-plane handler.
func (e *Endpoint) SetCtlHandler(h transport.CtlHandler) {
	e.mu.Lock()
	e.ctl = h
	e.mu.Unlock()
}

// CtlHandler returns the installed control handler (for save/restore).
func (e *Endpoint) CtlHandler() transport.CtlHandler {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ctl
}

// now returns seconds of wall-clock time since the endpoint started.
func (e *Endpoint) now() float64 { return time.Since(e.epoch).Seconds() }

// touch advances the endpoint clock to the current wall time.
func (e *Endpoint) touch() { e.clock.AdvanceTo(e.now()) }

// VClock returns the endpoint's clock: wall-clock seconds since start,
// refreshed on every endpoint operation and on each VClock call.
func (e *Endpoint) VClock() *vtime.Clock {
	e.touch()
	return &e.clock
}

// Compute is a no-op on the real transport: wall time advances by itself.
func (e *Endpoint) Compute(d float64) { e.touch() }

// MarkDead records an authoritative failure declaration for a peer (from
// the rendezvous heartbeat detector) and injects the CtlPeerDown control
// notice, waking any blocked Recv so the ULFM recovery path can run. A
// Send to the peer that is backing off, dialing or blocked in a write
// returns PeerFailedError at once instead of sitting out its retries.
// It is idempotent, safe from any goroutine, and never waits on a sender.
func (e *Endpoint) MarkDead(id transport.ProcID) {
	e.mu.Lock()
	if e.closed || e.dead[id] {
		e.mu.Unlock()
		return
	}
	e.dead[id] = true
	p := e.peers[id]
	e.enqueueLocked(&transport.Message{
		From: id, To: e.id, Tag: transport.CtlPeerDown, ArriveAt: e.now(),
	})
	e.mu.Unlock()
	if p != nil {
		p.shut()
	}
}

// Close shuts the endpoint down gracefully: the listener and all
// connections are closed, reader goroutines drain, and pending or future
// operations on the endpoint — a Send backing off, dialing or blocked in
// a write included — return ErrDead. Peers observe the closed
// connections as send failures and, authoritatively, a heartbeat
// declaration from the rendezvous service.
func (e *Endpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.cancel()
	for _, m := range e.queue {
		// Undelivered lazy payloads still own pooled read buffers; give
		// them back so the post-shutdown leak checks stay at zero.
		transport.ReleaseMessage(m)
	}
	e.queue = nil
	obsMailboxDepth.Set(0)
	conns := make([]net.Conn, 0, len(e.conns))
	for c := range e.conns {
		conns = append(conns, c)
	}
	peers := make([]*peer, 0, len(e.peers))
	for _, p := range e.peers {
		peers = append(peers, p)
	}
	e.cond.Broadcast()
	e.mu.Unlock()

	e.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	for _, p := range peers {
		p.shut()
	}
	e.wg.Wait()
	return nil
}

// acceptLoop admits inbound connections until the listener closes.
func (e *Endpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		conn, err := e.ln.Accept()
		if err != nil {
			return
		}
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			conn.Close()
			return
		}
		setNoDelay(conn)
		if e.cfg.WrapConn != nil {
			conn = e.cfg.WrapConn(conn, false)
		}
		e.conns[conn] = true
		e.mu.Unlock()
		e.wg.Add(1)
		go e.readLoop(conn)
	}
}

// readLoop decodes frames off one inbound connection into the mailbox.
// Any framing or decoding error drops the connection; the peer redials.
// The loop holds one pooled scratch buffer for the connection's
// lifetime: frames are read into it and small payloads are decoded into
// typed slices before the buffer is reused. Large raw payloads (the
// gradient chunks) skip the decode copy: the scratch buffer is handed
// off with the message as a lazy transport.RawPayload whose Release
// returns it to the pool, and the loop checks out a fresh buffer for
// the next frame. Exactly one consumer-side Release (or Decode) per
// handed-off buffer keeps OutstandingFrameBufs balanced; deliver and
// Close release payloads that can no longer reach a consumer.
func (e *Endpoint) readLoop(conn net.Conn) {
	defer e.wg.Done()
	defer func() {
		conn.Close()
		e.mu.Lock()
		delete(e.conns, conn)
		e.mu.Unlock()
	}()
	bufp := getFrameBuf()
	defer func() { putFrameBuf(bufp) }()
	for {
		m, err := readMessage(conn, &bufp, e.cfg.MaxFrame, e.cfg.ZeroCopyMin)
		if err != nil {
			return
		}
		m.ArriveAt = e.now()
		e.deliver(m)
	}
}

// readMessage reads one frame from r into the pooled scratch buffer
// *bufp and turns it into a message (ArriveAt unset). A raw payload of
// at least zeroCopyMin bytes on a data tag is handed off lazily: the
// message's RawPayload takes the scratch buffer, its Release returns it
// to the pool, and *bufp is replaced with a fresh one at least as large.
// On every other outcome, errors included, *bufp stays the caller's.
// zeroCopyMin <= 0 decodes every payload eagerly.
func readMessage(r io.Reader, bufp **[]byte, maxFrame, zeroCopyMin int) (*transport.Message, error) {
	f, buf, err := readFrameBuf(r, **bufp, maxFrame)
	**bufp = buf
	if err != nil {
		return nil, err
	}
	obsRxFrames.Inc()
	obsRxBytes.Add(uint64(4 + frameHeaderLen + len(f.Payload)))
	var data any
	if zeroCopyMin > 0 && len(f.Payload) >= zeroCopyMin && f.Tag > int64(transport.CtlTagBase) {
		owned := *bufp
		rp, ok, err := transport.ParseRawPayload(f.Payload, func() { putFrameBuf(owned) })
		if err != nil {
			return nil, err
		}
		if ok {
			obsRxInplace.Inc()
			data = rp
			*bufp = getFrameBuf()
			if cap(**bufp) < len(buf) {
				// The next frame is likely as large as this one. Size the
				// fresh buffer by the bytes of the frame just handed off,
				// not by its buffer's capacity (the largest frame that
				// pooled buffer ever held), so readBody's prefix-safe
				// growth runs once per connection, not once per frame
				// while the pool is cold.
				**bufp = make([]byte, 0, len(buf))
			}
		}
	}
	if data == nil {
		if data, err = transport.DecodePayload(f.Payload); err != nil {
			return nil, err
		}
	}
	return &transport.Message{
		From:  transport.ProcID(f.From),
		To:    transport.ProcID(f.To),
		Tag:   int(f.Tag),
		Data:  data,
		Bytes: f.Bytes,
	}, nil
}

// deliver enqueues m and wakes the owner. Messages to a closed endpoint
// are dropped, as the wire would; a dropped lazy payload gives its
// pooled buffer back here, since no consumer will.
func (e *Endpoint) deliver(m *transport.Message) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		transport.ReleaseMessage(m)
		return
	}
	e.enqueueLocked(m)
}

// enqueueLocked appends m to the mailbox and wakes the owner.
func (e *Endpoint) enqueueLocked(m *transport.Message) {
	e.queue = append(e.queue, m)
	obsMailboxDepth.Set(int64(len(e.queue)))
	e.cond.Broadcast()
}

// takeLocked removes and returns the i-th queued message.
func (e *Endpoint) takeLocked(i int) *transport.Message {
	m := e.queue[i]
	e.queue = append(e.queue[:i], e.queue[i+1:]...)
	obsMailboxDepth.Set(int64(len(e.queue)))
	return m
}

// Send transmits data to the process dst, encoding the payload with the
// transport wire codec directly into a pooled frame buffer and writing it
// onto the peer's buffered connection (dialed on demand with retry/
// backoff, flushed at the message boundary). Exhausted retries are
// reported as a peer failure — the Gloo-style reading of connection
// resets — which the rendezvous heartbeat detector later confirms or
// refutes globally; a declaration that arrives first (MarkDead) ends the
// retries at once with the same error.
//
// Both write paths are done with data when Send returns — appendFrame
// has encoded it into the frame buffer, sendVec has handed every body
// byte to the kernel — so Send never copies a payload to keep it, and
// the caller may overwrite data at once.
func (e *Endpoint) Send(dst transport.ProcID, tag int, data any, bytes int64) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return transport.ErrDead
	}
	if e.dead[dst] {
		e.mu.Unlock()
		return &transport.PeerFailedError{Proc: dst}
	}
	p := e.peers[dst]
	from := e.id
	e.mu.Unlock()
	if p == nil {
		return &transport.UnknownProcError{Proc: dst}
	}
	if zc := e.cfg.ZeroCopyMin; zc > 0 {
		if ptag, count, body, ok := transport.RawSendView(data); ok && len(body) >= zc {
			return e.sendVec(p, from, dst, tag, bytes, ptag, count, body)
		}
	}
	bufp := getFrameBuf()
	buf, err := appendFrame((*bufp)[:0], from, dst, tag, bytes, data, e.cfg.MaxFrame)
	if err != nil {
		*bufp = buf
		putFrameBuf(bufp)
		if _, oversized := err.(*oversizeError); oversized {
			return err
		}
		return fmt.Errorf("tcpnet: send to proc %d: %w", dst, err)
	}
	flushStart := time.Now()
	werr := e.writeToPeer(p, buf)
	wire := len(buf)
	*bufp = buf
	putFrameBuf(bufp)
	if werr != nil {
		obsSendErrors.Inc()
		if e.Closed() {
			return transport.ErrDead
		}
		return &transport.PeerFailedError{Proc: dst}
	}
	obsWriteFlush.ObserveSince(flushStart)
	obsTxFrames.Inc()
	obsTxBytes.Add(uint64(wire))
	e.touch()
	return nil
}

// sendVec is the zero-copy send path: the length prefix, frame header,
// and raw payload header are assembled into a small pooled buffer, and
// the payload body goes to the kernel as a second iovec via net.Buffers
// (writev on *net.TCPConn) — no contiguous frame is ever built and the
// payload is never copied in-process. The body slice aliases the
// caller's data; it is written (possibly across redial attempts)
// entirely before Send returns, which is all Send's borrow contract
// asks. Wrapped connections that are not *net.TCPConn degrade to
// sequential writes inside net.Buffers.WriteTo, keeping the chaos
// harness's byte-level conn faults effective.
func (e *Endpoint) sendVec(p *peer, from, dst transport.ProcID, tag int, bytes int64, ptag byte, count int, body []byte) error {
	n := frameHeaderLen + transport.RawPayloadHeaderLen + len(body)
	if n > e.cfg.MaxFrame {
		return &oversizeError{err: fmt.Errorf(
			"tcpnet: frame body of %d bytes exceeds limit %d", n, e.cfg.MaxFrame)}
	}
	bufp := getFrameBuf()
	hdr := appendVecHeader((*bufp)[:0], n, from, dst, tag, bytes)
	hdr = transport.AppendRawPayloadHeader(hdr, ptag, count)
	flushStart := time.Now()
	werr := e.writeVecToPeer(p, hdr, body)
	*bufp = hdr
	putFrameBuf(bufp)
	if werr != nil {
		obsSendErrors.Inc()
		if e.Closed() {
			return transport.ErrDead
		}
		return &transport.PeerFailedError{Proc: dst}
	}
	obsWriteFlush.ObserveSince(flushStart)
	obsTxFrames.Inc()
	obsTxBytes.Add(uint64(4 + n))
	obsTxVecFrames.Inc()
	obsTxVecBytes.Add(uint64(len(body)))
	e.touch()
	return nil
}

// oversizeError marks frame-limit violations so Send reports them as
// usage errors rather than peer failures.
type oversizeError struct{ err error }

func (e *oversizeError) Error() string { return e.err.Error() }
func (e *oversizeError) Unwrap() error { return e.err }

// writeToPeer writes one assembled frame onto p's connection, dialing (or
// redialing) with exponential backoff. The frame goes through the peer's
// buffered writer and is flushed before returning, so every Send leaves
// the wire at a message boundary.
func (e *Endpoint) writeToPeer(p *peer, buf []byte) error {
	return e.writeToPeerFn(p, func(_ net.Conn, bw *bufio.Writer) error {
		return writeBuffered(bw, buf)
	})
}

// writeVecToPeer writes one frame as two iovecs — pooled header, caller
// payload — through writev, redialing like writeToPeer. A failed
// attempt rewrites the whole frame on the fresh connection, so the
// net.Buffers list (which WriteTo consumes) is rebuilt per attempt.
func (e *Endpoint) writeVecToPeer(p *peer, hdr, body []byte) error {
	return e.writeToPeerFn(p, func(conn net.Conn, bw *bufio.Writer) error {
		// The buffered writer is empty at message boundaries, but flush
		// defensively: header bytes must never pass buffered ones.
		if err := bw.Flush(); err != nil {
			return err
		}
		v := net.Buffers{hdr, body}
		_, err := v.WriteTo(conn)
		return err
	})
}

// writeToPeerFn runs one frame-write attempt function against p's live
// connection and its buffered writer, dialing (or redialing) with
// exponential backoff between attempts; any error the function returns
// drops the connection and retries the whole frame on a fresh one. The
// peer's write lock serializes concurrent senders for the whole call.
//
// Every wait in here ends when p.ctx is cancelled: the context is
// checked before each attempt, the back-off selects on it, the dial runs
// under it, and shut closes the published connection underneath a
// blocked write. A verdict (MarkDead) or Close therefore costs a sender
// nothing further; the retry count and back-off only pace the case
// where no verdict arrives, and exhausting them is a local failure
// report the detector later confirms or refutes.
func (e *Endpoint) writeToPeerFn(p *peer, write func(conn net.Conn, bw *bufio.Writer) error) error {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	var lastErr error
	var timer *time.Timer // one timer for all back-offs; none on the failure-free path
	backoff := e.cfg.DialBackoff
	for attempt := 0; attempt <= e.cfg.DialRetries; attempt++ {
		if err := p.ctx.Err(); err != nil {
			return err
		}
		if attempt > 0 {
			obsDialRetries.Inc()
			if timer == nil {
				timer = time.NewTimer(backoff)
			} else {
				timer.Reset(backoff) // fired and drained below: safe to rearm
			}
			select {
			case <-p.ctx.Done():
				timer.Stop()
				return p.ctx.Err()
			case <-timer.C:
			}
			backoff *= 2
		}
		p.mu.Lock()
		conn := p.conn
		p.mu.Unlock()
		if conn == nil {
			var err error
			if conn, err = e.dial(p); err != nil {
				lastErr = err
				continue
			}
		}
		if err := write(conn, p.bw); err != nil {
			p.drop() // a no-op if shut got there first
			lastErr = err
			continue
		}
		return nil
	}
	return lastErr
}

// dial connects to p under the peer's context — so a verdict or Close
// cuts a black-holed connect short instead of waiting out DialTimeout —
// and publishes the connection with a fresh buffered writer. Called with
// p.wmu held.
func (e *Endpoint) dial(p *peer) (net.Conn, error) {
	d := net.Dialer{Timeout: e.cfg.DialTimeout}
	conn, err := d.DialContext(p.ctx, "tcp", p.addr)
	if err != nil {
		return nil, err
	}
	setNoDelay(conn)
	if e.cfg.WrapConn != nil {
		conn = e.cfg.WrapConn(conn, true)
	}
	if !p.publish(conn) {
		conn.Close()
		return nil, p.ctx.Err()
	}
	obsDials.Inc()
	if p.everConnected {
		obsReconnects.Inc()
	}
	p.everConnected = true
	p.bw = bufio.NewWriterSize(conn, writeBufSize)
	return conn, nil
}

// writeBuffered pushes one frame through a buffered writer and flushes it.
func writeBuffered(bw *bufio.Writer, buf []byte) error {
	if _, err := bw.Write(buf); err != nil {
		return err
	}
	return bw.Flush()
}

// setNoDelay disables Nagle's algorithm on TCP connections. Go already
// defaults to TCP_NODELAY, but the data plane depends on it — a ring step
// is a latency-bound request/response chain of single frames — so it is
// set explicitly on both dialed and accepted connections rather than
// relied on as a runtime default.
func setNoDelay(conn net.Conn) {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
}

// Recv blocks until a message with the given source and tag arrives.
// Deliverable data takes priority over failure notices, matching the
// simulator: an operation whose message already arrived completes even if
// a failure was detected meanwhile.
func (e *Endpoint) Recv(src transport.ProcID, tag int) (*transport.Message, error) {
	e.mu.Lock()
	for {
		if i := e.matchLocked(src, tag); i >= 0 {
			m := e.takeLocked(i)
			e.mu.Unlock()
			e.touch()
			return m, nil
		}
		if err := e.drainCtlLocked(); err != nil {
			e.mu.Unlock()
			return nil, err
		}
		// drainCtl released the lock; a matching message may have landed,
		// or Close may have run, its Broadcast reaching no waiter (Close
		// empties the queue, so a closed endpoint matches nothing).
		if i := e.matchLocked(src, tag); i >= 0 {
			m := e.takeLocked(i)
			e.mu.Unlock()
			e.touch()
			return m, nil
		}
		if e.closed {
			e.mu.Unlock()
			return nil, transport.ErrDead
		}
		if src != transport.AnySource && e.dead[src] {
			e.mu.Unlock()
			e.touch()
			return nil, &transport.PeerFailedError{Proc: src}
		}
		e.cond.Wait()
	}
}

// TryRecv is a non-blocking Recv: it returns (nil, nil) when no matching
// message is queued, after processing any pending control messages.
func (e *Endpoint) TryRecv(src transport.ProcID, tag int) (*transport.Message, error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, transport.ErrDead
	}
	if i := e.matchLocked(src, tag); i >= 0 {
		m := e.takeLocked(i)
		e.mu.Unlock()
		e.touch()
		return m, nil
	}
	if err := e.drainCtlLocked(); err != nil {
		e.mu.Unlock()
		return nil, err
	}
	if i := e.matchLocked(src, tag); i >= 0 {
		m := e.takeLocked(i)
		e.mu.Unlock()
		e.touch()
		return m, nil
	}
	e.mu.Unlock()
	return nil, nil
}

// PollCtl processes any pending control messages without receiving data,
// surfacing the first handler error.
func (e *Endpoint) PollCtl() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return transport.ErrDead
	}
	return e.drainCtlLocked()
}

// drainCtlLocked pulls control messages out of the queue and runs the
// handler on each. The endpoint lock is released around handler calls so
// handlers may send messages. The first handler error stops the drain.
func (e *Endpoint) drainCtlLocked() error {
	for {
		idx := -1
		for i, m := range e.queue {
			if m.Tag <= transport.CtlTagBase {
				idx = i
				break
			}
		}
		if idx < 0 {
			return nil
		}
		m := e.takeLocked(idx)
		h := e.ctl
		e.mu.Unlock()
		e.touch()
		var err error
		if h != nil {
			err = h(m)
		}
		e.mu.Lock()
		if err != nil {
			return err
		}
	}
}

func (e *Endpoint) matchLocked(src transport.ProcID, tag int) int {
	for i, m := range e.queue {
		if m.Tag != tag || m.Tag <= transport.CtlTagBase {
			continue
		}
		if src == transport.AnySource || m.From == src {
			return i
		}
	}
	return -1
}

// QueueLen reports the number of queued (unmatched) messages; useful in
// tests and diagnostics.
func (e *Endpoint) QueueLen() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.queue)
}
