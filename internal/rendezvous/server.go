package rendezvous

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/internal/trace"
	"repro/internal/transport"
)

// wireMsg is the line-delimited JSON protocol both directions speak.
//
// client -> server: {"op":"join","addr":...} (with "spare":true to
// register as a warm spare instead of a world member), {"op":"hb"},
// {"op":"leave"}, and {"op":"activate","proc":N} (a member reporting that
// spare N was admitted into the communicator via Grow).
// server -> client: {"op":"welcome",...} once the world has gathered,
// then incremental deltas: {"op":"peerdown","proc":N} for each declared
// failure, the same with "left":true for each clean departure,
// {"op":"spareup",...} for each registered spare, and {"op":"peerup",...}
// for each activated spare. Every delta carries the peer-map version it
// produced; the full map travels only in the welcome.
type wireMsg struct {
	Op       string            `json:"op"`
	Addr     string            `json:"addr,omitempty"`  // join/peerup/spareup: worker's transport listen address
	Proc     int               `json:"proc,omitempty"`  // welcome: assigned ProcID; peerup/peerdown/spareup/activate: the affected process
	Rank     int               `json:"rank,omitempty"`  // welcome: assigned world rank (-1 for spares)
	World    int               `json:"world,omitempty"` // welcome: world size
	HBMillis int64             `json:"hb_ms,omitempty"` // welcome: heartbeat interval to honor
	Ver      uint64            `json:"ver,omitempty"`   // welcome/deltas: peer-map version
	Peers    map[string]string `json:"peers,omitempty"` // welcome: ProcID (decimal) -> transport address
	Spare    bool              `json:"spare,omitempty"` // join: register as a warm spare
	Left     bool              `json:"left,omitempty"`  // peerdown: a clean departure, not a conviction
}

// Config tunes the rendezvous service.
type Config struct {
	// World is the number of workers to gather before publishing the
	// address map. Required.
	World int
	// HeartbeatInterval is the cadence clients are told to heartbeat at.
	// Default 500ms.
	HeartbeatInterval time.Duration
	// SuspectAfter is the silence after which a member is suspected.
	// Default 3x HeartbeatInterval.
	SuspectAfter time.Duration
	// DeadAfter is the silence after which a suspect is declared dead and
	// the declaration broadcast. Default 6x HeartbeatInterval.
	DeadAfter time.Duration
	// Trace, if set, receives member_join/member_leave/hb_* events.
	Trace *trace.Recorder
	// Logf, if set, receives human-readable service logs.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 500 * time.Millisecond
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 3 * c.HeartbeatInterval
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 6 * c.HeartbeatInterval
	}
	return c
}

// member is one connected worker.
type member struct {
	proc  transport.ProcID
	rank  int
	addr  string
	conn  net.Conn
	enc   *json.Encoder
	mu    sync.Mutex // serializes writes to conn
	gone  bool       // reader exited (EOF, reset, garbage): nothing can be read from or written to it again (guarded by Server.mu)
	spare bool       // registered as a warm spare, not a world member (guarded by Server.mu)
}

func (m *member) send(msg *wireMsg) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.enc.Encode(msg)
}

// Server is the rendezvous/membership service.
type Server struct {
	cfg   Config
	ln    net.Listener
	epoch time.Time

	mu        sync.Mutex
	members   map[transport.ProcID]*member
	det       *Detector
	nextProc  transport.ProcID
	mapVer    uint64 // peer-map version, bumped on every membership change
	worldSent bool
	closed    bool
	done      chan struct{} // closed by Close: ends the sweep without waiting out a tick

	wg sync.WaitGroup
}

// ListenAndServe starts a server on addr (port 0 for ephemeral).
func ListenAndServe(addr string, cfg Config) (*Server, error) {
	if cfg.World <= 0 {
		return nil, fmt.Errorf("rendezvous: Config.World must be positive, got %d", cfg.World)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("rendezvous: listen %s: %w", addr, err)
	}
	return Serve(ln, cfg), nil
}

// Serve runs the service on an existing listener.
func Serve(ln net.Listener, cfg Config) *Server {
	s := &Server{
		cfg:     cfg.withDefaults(),
		ln:      ln,
		epoch:   time.Now(),
		members: make(map[transport.ProcID]*member),
		done:    make(chan struct{}),
	}
	s.det = NewDetector(s.cfg.SuspectAfter.Seconds(), s.cfg.DeadAfter.Seconds())
	s.wg.Add(2)
	go s.acceptLoop()
	go s.sweepLoop()
	return s
}

// MapVersion returns the current peer-map version.
func (s *Server) MapVersion() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mapVer
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the service down.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.done)
	conns := make([]net.Conn, 0, len(s.members))
	for _, m := range s.members {
		conns = append(conns, m.conn)
	}
	s.mu.Unlock()
	s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return nil
}

func (s *Server) now() float64 { return time.Since(s.epoch).Seconds() }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go s.handle(conn)
	}
}

// handle runs one worker's connection: a join, then heartbeats until the
// worker leaves or the connection drops. The two endings are different
// evidence. A leave is read here and acted on here. A connection that
// ends without one — EOF, reset, or bytes that are not the protocol — is
// the kernel reporting that the process is gone: a SIGKILLed worker's
// socket closes the instant it dies, and Client never re-dials, so a
// member behind a closed control connection can heartbeat no more however
// alive it is. connGone convicts it on the spot; the heartbeat sweep stays
// for the deaths that close no socket (SIGSTOP, partition, host loss).
func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	dec := json.NewDecoder(conn)
	var m *member
	defer func() {
		if m != nil {
			s.connGone(m)
		}
	}()
	for {
		var msg wireMsg
		if err := dec.Decode(&msg); err != nil {
			return
		}
		switch msg.Op {
		case "join":
			if m != nil {
				continue // duplicate join on one connection
			}
			m = s.join(conn, msg.Addr, msg.Spare)
		case "activate":
			if m != nil {
				s.activate(m, transport.ProcID(msg.Proc))
			}
		case "hb":
			if m != nil {
				s.heartbeat(m)
			}
		case "leave":
			if m != nil {
				s.remove(m.proc, causeLeft)
			}
			return
		}
	}
}

// join admits a worker: assigns the next ProcID (never reused), records
// its transport address, and — once the expected world has gathered —
// publishes the address map to everyone. After that point the full map
// travels only in the late joiner's own welcome.
//
// A spare join registers a warm standby instead: it gets a ProcID and a
// welcome (rank -1, with the world's address map so it can attach its
// transport) but never counts toward the world gather and never appears
// in the welcome peer maps. Members learn of spares through spareup
// deltas, and a spare becomes a member only through an activate report
// after a Grow admission.
func (s *Server) join(conn net.Conn, addr string, spare bool) *member {
	s.mu.Lock()
	proc := s.nextProc
	s.nextProc++
	rank := int(proc)
	if spare {
		rank = -1
	}
	m := &member{
		proc:  proc,
		rank:  rank,
		addr:  addr,
		conn:  conn,
		enc:   json.NewEncoder(conn),
		spare: spare,
	}
	s.members[proc] = m
	s.mapVer++
	ver := s.mapVer
	now := s.now()
	gathered := 0
	for _, mm := range s.members {
		if !mm.spare {
			gathered++
		}
	}
	world := s.cfg.World
	sendWorld := !s.worldSent && gathered >= world
	if sendWorld {
		s.worldSent = true
	}
	lateJoin := s.worldSent && !sendWorld
	// Arm the failure detector at welcome time, not join time: clients
	// only start heartbeating once the welcome arrives, so a member that
	// joins early (e.g. a worker that also hosts this service) must not
	// accrue silence while the rest of the world is still gathering.
	// Spares heartbeat like anyone else, so they are armed too — a cold
	// corpse in the pool must be detected before the autopilot tries to
	// swap it in.
	if sendWorld {
		for pid := range s.members {
			s.det.Join(pid, now)
			obsPeerArmed()
		}
	} else if lateJoin {
		s.det.Join(proc, now)
		obsPeerArmed()
	}
	obsJoins.Inc()
	if spare {
		obsSpares.Inc()
	}
	var recipients []*member
	var deltaTo []*member  // targets of this joiner's own spareup
	var spareUps []*member // spares announced to the welcome's recipients
	var corpses []*member  // connections that dropped while the world was gathering
	if sendWorld {
		for _, mm := range s.members {
			recipients = append(recipients, mm)
			if mm.spare {
				spareUps = append(spareUps, mm)
			}
			if mm.gone {
				corpses = append(corpses, mm)
			}
		}
	} else if lateJoin {
		recipients = []*member{m}
		if spare {
			deltaTo = s.othersLocked(proc)
		}
		// A late joiner hears of the spares already registered just as a
		// gathered member did: two spares admitted at one boundary must be
		// able to dial each other.
		for _, mm := range s.members {
			if mm.spare && mm.proc != proc {
				spareUps = append(spareUps, mm)
			}
		}
	}
	peers := make(map[string]string, len(s.members))
	for id, mm := range s.members {
		if !mm.spare {
			peers[strconv.Itoa(int(id))] = mm.addr
		}
	}
	s.mu.Unlock()

	s.cfg.Trace.Membership(now, int(proc), "member_join", map[string]any{"addr": addr, "rank": m.rank, "spare": spare})
	s.logf("rendezvous: proc %d joined from %s (%d/%d, spare=%v)", proc, addr, gathered, world, spare)

	for _, mm := range recipients {
		msg := &wireMsg{
			Op:       "welcome",
			Proc:     int(mm.proc),
			Rank:     mm.rank,
			World:    len(peers),
			HBMillis: s.cfg.HeartbeatInterval.Milliseconds(),
			Ver:      ver,
			Peers:    peers,
		}
		if err := mm.send(msg); err != nil {
			s.logf("rendezvous: welcome to proc %d failed: %v", mm.proc, err)
		}
	}
	for _, mm := range deltaTo {
		s.sendDelta(mm, &wireMsg{Op: "spareup", Proc: int(proc), Addr: addr, Ver: ver})
	}
	for _, sp := range spareUps {
		for _, mm := range recipients {
			if mm.proc == sp.proc {
				continue
			}
			s.sendDelta(mm, &wireMsg{Op: "spareup", Proc: int(sp.proc), Addr: sp.addr, Ver: ver})
		}
	}
	// A member whose connection dropped during the gather could not be
	// convicted then (see connGone): its rank is in the welcome that just
	// went out. It is convicted now, before anyone has waited on it.
	for _, mm := range corpses {
		s.remove(mm.proc, causeConnection)
	}
	return m
}

// activate promotes a registered spare to a full member on a Grow
// admission report from any current member. The hub stays the single
// authority on who is world and who is pool — the report may come from
// whichever rank ran the control loop, so the pool survives rank-0
// deaths — and the promotion is published as a peerup delta so every
// member's map converges on the new world.
func (s *Server) activate(from *member, proc transport.ProcID) {
	s.mu.Lock()
	mm, ok := s.members[proc]
	if !ok || !mm.spare || from.spare || s.closed {
		s.mu.Unlock()
		return // unknown, already activated, or reported by a non-member
	}
	mm.spare = false
	mm.rank = int(mm.proc)
	s.mapVer++
	ver := s.mapVer
	now := s.now()
	rest := s.othersLocked(proc)
	addr := mm.addr
	s.mu.Unlock()

	obsSpares.Dec()
	obsActivations.Inc()
	s.cfg.Trace.Membership(now, int(proc), "spare_activate", map[string]any{"by": int(from.proc)})
	s.logf("rendezvous: spare %d activated by proc %d", proc, from.proc)
	for _, o := range rest {
		s.sendDelta(o, &wireMsg{Op: "peerup", Proc: int(proc), Addr: addr, Ver: ver})
	}
}

// connGone records that a member's connection reader exited without
// reading a leave. The unclean close is the death — the hub's own socket
// carries that evidence the instant the process dies, six heartbeats
// before the sweep would have read it off a timer — and the member is
// convicted here. One exception: until the world has shipped nobody is
// armed and nobody can act on a conviction, so a connection that drops
// during the gather is only marked; join convicts it right after the
// welcomes.
func (s *Server) connGone(m *member) {
	s.mu.Lock()
	m.gone = true
	convict := s.worldSent
	s.mu.Unlock()
	if convict {
		s.remove(m.proc, causeConnection)
	}
}

// cause is the evidence a member is removed on. It picks the journal
// event, the log line and the metric series, and whether survivors hear
// of a departure or of a death.
type cause int

const (
	causeLeft       cause = iota // the member sent a leave
	causeTimeout                 // silent past DeadAfter with its socket still open (heartbeat sweep)
	causeConnection              // its control connection closed with no leave
)

func (c cause) String() string {
	return [...]string{"left", "timeout", "connection"}[c]
}

// remove is the one way a member leaves the map, whatever the evidence:
// the detector forgets it, the map version
// moves, its connection is closed and every member still connected is
// told. The first caller wins — a timeout racing a close, a leave
// followed by its EOF, or anything after Close finds no member (or a
// closed service) and does nothing, so each removal is published once.
func (s *Server) remove(proc transport.ProcID, why cause) {
	s.mu.Lock()
	mm, ok := s.members[proc]
	if !ok || s.closed {
		s.mu.Unlock()
		return
	}
	delete(s.members, proc)
	if mm.spare {
		obsSpares.Dec()
	}
	// A timed-out member stays in the detector as dead (the sweep just
	// put it there, gauges moved with it): the state is absorbing. Every
	// other cause takes the member out of tracking from wherever it was.
	if why != causeTimeout {
		if st, ok := s.det.State(proc); ok {
			obsPeerGone(st)
		}
		s.det.Leave(proc)
	}
	s.mapVer++
	ver := s.mapVer
	now := s.now()
	rest := s.othersLocked(proc)
	s.mu.Unlock()

	switch why {
	case causeLeft:
		obsLeaves.Inc()
		s.cfg.Trace.Membership(now, int(proc), "member_leave", nil)
		s.logf("rendezvous: proc %d left", proc)
	case causeTimeout:
		s.cfg.Trace.Membership(now, int(proc), "hb_dead", nil)
		s.logf("rendezvous: proc %d declared dead", proc)
	case causeConnection:
		s.cfg.Trace.Membership(now, int(proc), "conn_dead", nil)
		s.logf("rendezvous: proc %d declared dead (connection lost)", proc)
	}
	if why != causeLeft {
		obsConvictions[why].Inc()
	}
	mm.conn.Close()
	for _, o := range rest {
		s.sendDelta(o, &wireMsg{Op: "peerdown", Proc: int(proc), Ver: ver, Left: why == causeLeft})
	}
}

func (s *Server) heartbeat(m *member) {
	s.mu.Lock()
	now := s.now()
	last, known := s.det.LastSeen(m.proc)
	tr := s.det.Heartbeat(m.proc, now)
	if known {
		obsHeartbeats.Inc()
		obsHBGap.Observe(now - last)
	}
	if tr != nil {
		obsTransition(*tr)
	}
	s.mu.Unlock()
	if tr != nil {
		s.cfg.Trace.Membership(tr.At, int(tr.Proc), "hb_alive", nil)
		s.logf("rendezvous: proc %d recovered from suspicion", tr.Proc)
	}
}

// othersLocked snapshots the members a delta about id goes to: everyone
// else whose connection is still up. A member whose reader already exited
// can still be in the map (dropped during the gather), but nothing written
// to it can arrive, so no delta is attempted.
func (s *Server) othersLocked(id transport.ProcID) []*member {
	out := make([]*member, 0, len(s.members))
	for pid, mm := range s.members {
		if pid != id && !mm.gone {
			out = append(out, mm)
		}
	}
	return out
}

// sendDelta writes one membership delta to mm. The recipients of a delta
// are snapshotted under the lock and written to outside it, so by the
// time of the write mm may itself have left, been convicted, or exited:
// a write that fails because the connection is closed — by the hub
// (net.ErrClosed) or by the member (EPIPE, ECONNRESET) — is expected,
// the member's own reader reports its fate, and nothing is logged. Any
// other failure is toward a member that may still be there, and is.
func (s *Server) sendDelta(mm *member, msg *wireMsg) {
	obsDeltas.Inc()
	err := mm.send(msg)
	if err == nil || errors.Is(err, net.ErrClosed) || errors.Is(err, syscall.EPIPE) || errors.Is(err, syscall.ECONNRESET) {
		return
	}
	s.logf("rendezvous: %s(%d) to proc %d failed: %v", msg.Op, msg.Proc, mm.proc, err)
}

// sweepLoop drives the detector on wall time and acts on its verdicts:
// suspicions are journaled, and a member silent past DeadAfter — one whose
// socket stayed open, or connGone would have got there first — is removed
// for the timeout. Survivors' transports turn the broadcast into
// CtlPeerDown and the revoke/agree/shrink/retry recovery.
func (s *Server) sweepLoop() {
	defer s.wg.Done()
	tick := s.cfg.SuspectAfter / 2
	if tick > s.cfg.HeartbeatInterval {
		tick = s.cfg.HeartbeatInterval
	}
	if tick <= 0 {
		tick = 100 * time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-ticker.C:
		}
		s.mu.Lock()
		trs := s.det.Sweep(s.now())
		obsSweeps.Inc()
		for _, tr := range trs {
			obsTransition(tr)
		}
		s.mu.Unlock()

		for _, tr := range trs {
			switch tr.To {
			case StateSuspect:
				s.cfg.Trace.Membership(tr.At, int(tr.Proc), "hb_suspect", nil)
				s.logf("rendezvous: proc %d suspected (silent %.0fms)", tr.Proc, s.cfg.SuspectAfter.Seconds()*1e3)
			case StateDead:
				s.remove(tr.Proc, causeTimeout)
			}
		}
	}
}
