package rendezvous

import (
	"encoding/json"
	"fmt"
	"net"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/transport"
)

// Client is one worker's connection to the rendezvous service. Typical
// lifecycle:
//
//	ep, _ := tcpnet.Listen("127.0.0.1:0", tcpnet.Config{})
//	cl, _ := rendezvous.Join(serverAddr, ep.Addr(), 10*time.Second)
//	ep.Start(cl.Proc(), cl.Peers())
//	cl.Start(func(dead transport.ProcID) { ep.MarkDead(dead) })
//	defer cl.Close()
type Client struct {
	conn   net.Conn
	enc    *json.Encoder
	dec    *json.Decoder
	proc   transport.ProcID
	rank   int
	world  int
	hbInt  time.Duration
	peers  map[transport.ProcID]string
	spares map[transport.ProcID]string // warm spares: ProcID -> transport address
	mapVer uint64
	// early holds notifications that overtook the welcome; the reader
	// StartNotify launches delivers them before anything newer.
	early []wireMsg

	mu      sync.Mutex
	started bool
	closed  bool
	frozen  bool // Freeze: send nothing more, keep the socket
	done    chan struct{}
	wg      sync.WaitGroup
}

// JoinOptions parameterizes JoinWith.
type JoinOptions struct {
	// SelfAddr is this worker's transport listen address. Required.
	SelfAddr string
	// Timeout bounds the whole join: dial retries (the server may not be
	// listening yet when workers launch in arbitrary order) plus the
	// welcome wait. 0 means a single dial attempt and no welcome limit.
	Timeout time.Duration
	// Spare registers this worker as a warm standby instead of a world
	// member: it receives a welcome (rank -1) with the world's address
	// map but joins the communicator only when the autopilot admits it
	// through Grow and a member reports the activation.
	Spare bool
}

// Join connects to the rendezvous server, announces selfAddr (this
// worker's transport listen address), and blocks until the server sends
// the welcome with the assigned ProcID/rank and the full peer address
// map — i.e. until the expected world has gathered. timeout bounds the
// whole wait (0 means no limit).
func Join(serverAddr, selfAddr string, timeout time.Duration) (*Client, error) {
	return JoinWith(serverAddr, JoinOptions{SelfAddr: selfAddr, Timeout: timeout})
}

// JoinWith is Join with the full option set (spare registration).
func JoinWith(serverAddr string, opts JoinOptions) (*Client, error) {
	var deadline time.Time
	if opts.Timeout > 0 {
		deadline = time.Now().Add(opts.Timeout)
	}
	var conn net.Conn
	for {
		var err error
		conn, err = net.DialTimeout("tcp", serverAddr, 5*time.Second)
		if err == nil {
			break
		}
		// The server races worker startup (one elasticd hosts the
		// rendezvous the others dial), so a refused dial retries until
		// the join deadline rather than failing the whole worker.
		if deadline.IsZero() || !time.Now().Add(100*time.Millisecond).Before(deadline) {
			return nil, fmt.Errorf("rendezvous: dial %s: %w", serverAddr, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
	c := &Client{
		conn: conn,
		enc:  json.NewEncoder(conn),
		dec:  json.NewDecoder(conn),
		done: make(chan struct{}),
	}
	if err := c.enc.Encode(&wireMsg{Op: "join", Addr: opts.SelfAddr, Spare: opts.Spare}); err != nil {
		conn.Close()
		return nil, fmt.Errorf("rendezvous: join: %w", err)
	}
	if !deadline.IsZero() {
		conn.SetReadDeadline(deadline)
	}
	var msg wireMsg
	for {
		// A fresh struct per message: Decode leaves fields the JSON omits
		// untouched, and the welcome omits every zero field — so a delta
		// read first (a spare registering before the world has gathered)
		// would lend proc 0 its own "proc".
		msg = wireMsg{}
		if err := c.dec.Decode(&msg); err != nil {
			conn.Close()
			return nil, fmt.Errorf("rendezvous: waiting for welcome: %w", err)
		}
		if msg.Op == "welcome" {
			break
		}
		// The server writes deltas and welcomes from different
		// goroutines, so one can overtake this client's welcome. It is
		// news all the same; the notification reader delivers it first.
		c.early = append(c.early, msg)
	}
	conn.SetReadDeadline(time.Time{})
	c.proc = transport.ProcID(msg.Proc)
	transport.Hit(c.proc, transport.PointRdvWelcome)
	c.rank = msg.Rank
	c.world = msg.World
	c.mapVer = msg.Ver
	c.hbInt = 500 * time.Millisecond
	if msg.HBMillis > 0 {
		c.hbInt = time.Duration(msg.HBMillis) * time.Millisecond
	}
	c.peers = make(map[transport.ProcID]string, len(msg.Peers))
	for k, addr := range msg.Peers {
		id, err := strconv.Atoi(k)
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("rendezvous: bad peer id %q in welcome", k)
		}
		c.peers[transport.ProcID(id)] = addr
	}
	c.spares = make(map[transport.ProcID]string)
	return c, nil
}

// Proc returns the server-assigned process ID.
func (c *Client) Proc() transport.ProcID { return c.proc }

// Rank returns the server-assigned world rank.
func (c *Client) Rank() int { return c.rank }

// World returns the gathered world size.
func (c *Client) World() int { return c.world }

// Peers returns a copy of the ProcID -> transport address map, self
// included, reflecting any deltas applied so far.
func (c *Client) Peers() map[transport.ProcID]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[transport.ProcID]string, len(c.peers))
	for id, addr := range c.peers {
		out[id] = addr
	}
	return out
}

// Spares returns a copy of the warm-spare ProcID -> transport address
// map: spares announced by spareup deltas and not yet activated,
// departed, or declared dead.
func (c *Client) Spares() map[transport.ProcID]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[transport.ProcID]string, len(c.spares))
	for id, addr := range c.spares {
		out[id] = addr
	}
	return out
}

// SpareProcs returns the registered spare ProcIDs in ascending order —
// the deterministic pool ordering every member's controller agrees on.
func (c *Client) SpareProcs() []transport.ProcID {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]transport.ProcID, 0, len(c.spares))
	for id := range c.spares {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Activate reports that the named spare was admitted into the
// communicator (Grow completed): the hub promotes it to a full member
// and publishes the change, keeping the authoritative world map in step
// with the communicator. Any member may report — whichever rank hosts
// the control loop.
func (c *Client) Activate(spare transport.ProcID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return net.ErrClosed
	}
	return c.enc.Encode(&wireMsg{Op: "activate", Proc: int(spare)})
}

// MapVersion returns the version of the peer map currently held: the
// welcome's version plus every delta applied since.
func (c *Client) MapVersion() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mapVer
}

// Procs returns the gathered ProcIDs in ascending order (the world rank
// order every worker agrees on).
func (c *Client) Procs() []transport.ProcID {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]transport.ProcID, 0, len(c.peers))
	for id := range c.peers {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// HeartbeatInterval returns the cadence the server asked for.
func (c *Client) HeartbeatInterval() time.Duration { return c.hbInt }

// Notifications are the membership callbacks delivered by Start's reader
// goroutine.
type Notifications struct {
	// OnPeerDown is invoked for every failure the server declares — and,
	// unless OnPeerLeft is set, for every clean departure; wire it to the
	// transport's MarkDead so declarations become CtlPeerDown injections.
	OnPeerDown func(transport.ProcID)
	// OnPeerLeft, if set, is invoked instead of OnPeerDown when a member
	// left cleanly. The member is out of the communicator either way, so
	// it needs the same MarkDead; what differs is what to tell the
	// operator.
	OnPeerLeft func(transport.ProcID)
	// OnPeerUp is invoked for every activated spare published as a peerup
	// delta; wire it to the transport's Start.
	OnPeerUp func(proc transport.ProcID, addr string)
	// OnSpareUp is invoked for every warm spare the server announces
	// (spareup deltas); the autopilot's pool observations come from here
	// or from polling Spares.
	OnSpareUp func(proc transport.ProcID, addr string)
	// OnHubLost is invoked once if the connection to the hub ends while
	// this client still wanted it (never after Close or Abandon): from
	// then on no failure or departure can be announced to this member.
	OnHubLost func(err error)
}

// Start launches the background heartbeat sender and the notification
// reader. onPeerDown is invoked (on the reader
// goroutine) for every failure or departure the server declares.
func (c *Client) Start(onPeerDown func(transport.ProcID)) {
	c.StartNotify(Notifications{OnPeerDown: onPeerDown})
}

// StartNotify is Start with the full callback set.
func (c *Client) StartNotify(n Notifications) {
	c.mu.Lock()
	if c.started || c.closed {
		c.mu.Unlock()
		return
	}
	c.started = true
	c.mu.Unlock()

	c.wg.Add(1)
	go func() { // heartbeat sender
		defer c.wg.Done()
		ticker := time.NewTicker(c.hbInt)
		defer ticker.Stop()
		for {
			select {
			case <-c.done:
				return
			case <-ticker.C:
				c.mu.Lock()
				closed := c.closed
				if !closed && !c.frozen {
					c.enc.Encode(&wireMsg{Op: "hb"})
				}
				c.mu.Unlock()
				if closed {
					return
				}
			}
		}
	}()
	obsHubConnected.Inc()
	c.wg.Add(1)
	go func() { // notification reader
		defer c.wg.Done()
		defer obsHubConnected.Dec()
		for i := range c.early {
			c.handle(&c.early[i], n)
		}
		c.early = nil
		for {
			var msg wireMsg
			if err := c.dec.Decode(&msg); err != nil {
				c.mu.Lock()
				closed := c.closed
				c.mu.Unlock()
				if !closed && n.OnHubLost != nil {
					n.OnHubLost(err)
				}
				return
			}
			c.handle(&msg, n)
		}
	}()
}

// handle applies one server notification to the client's maps and runs
// its callback. It runs on the notification reader's goroutine.
func (c *Client) handle(msg *wireMsg, n Notifications) {
	switch msg.Op {
	case "peerdown":
		c.mu.Lock()
		delete(c.peers, transport.ProcID(msg.Proc))
		delete(c.spares, transport.ProcID(msg.Proc))
		if msg.Ver > c.mapVer {
			c.mapVer = msg.Ver
		}
		c.mu.Unlock()
		down := n.OnPeerDown
		if msg.Left && n.OnPeerLeft != nil {
			down = n.OnPeerLeft
		}
		if down != nil {
			down(transport.ProcID(msg.Proc))
		}
	case "peerup":
		c.mu.Lock()
		c.peers[transport.ProcID(msg.Proc)] = msg.Addr
		// An activated spare moves pool -> world.
		delete(c.spares, transport.ProcID(msg.Proc))
		if msg.Ver > c.mapVer {
			c.mapVer = msg.Ver
		}
		c.mu.Unlock()
		if n.OnPeerUp != nil {
			n.OnPeerUp(transport.ProcID(msg.Proc), msg.Addr)
		}
	case "spareup":
		c.mu.Lock()
		c.spares[transport.ProcID(msg.Proc)] = msg.Addr
		if msg.Ver > c.mapVer {
			c.mapVer = msg.Ver
		}
		c.mu.Unlock()
		if n.OnSpareUp != nil {
			n.OnSpareUp(transport.ProcID(msg.Proc), msg.Addr)
		}
	}
}

// Close announces a clean departure and tears the connection down. The
// server broadcasts the leave immediately, so survivors shrink without
// waiting out the heartbeat timeout.
func (c *Client) Close() error {
	return c.shutdown(true)
}

// Abandon drops the connection without a leave — the programmatic
// equivalent of kill -9, used by failure-injection tests. The hub sees
// what it sees when a process dies: the socket closes, and that is a
// conviction on the spot.
func (c *Client) Abandon() error {
	return c.shutdown(false)
}

// Freeze makes the client go silent and keep its socket: no more
// heartbeats. That is what SIGSTOP, a partition or
// a lost host looks like to the hub, whose only evidence is then the
// silence — suspicion at SuspectAfter, conviction at DeadAfter. The reader
// keeps running; Close or Abandon still end the client.
func (c *Client) Freeze() {
	c.mu.Lock()
	c.frozen = true
	c.mu.Unlock()
}

func (c *Client) shutdown(leave bool) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	if leave {
		c.enc.Encode(&wireMsg{Op: "leave"})
	}
	c.mu.Unlock()
	close(c.done)
	err := c.conn.Close()
	c.wg.Wait()
	return err
}
