package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/autopilot"
	"repro/internal/mpi"
	"repro/internal/rendezvous"
	"repro/internal/transport"
	"repro/internal/transport/tcpnet"
	"repro/internal/ulfm"
)

// The probe is the [probe] half of the per-layer metrics: an in-process
// harness that wires tcpnet → mpi → ulfm in goroutines over loopback the
// way internal/dataplane does, and records a span around each public call
// into a layer. It measures the layers in isolation, so a layer number
// can be compared with the end-to-end number it is predicted to move.
// Spans stay in memory and are written out once, when the probe ends.

type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // 0: a probe's root span
	Run     string  `json:"run"`
	Name    string  `json:"name"`
	Rank    int     `json:"rank"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
}

type tracer struct {
	mu    sync.Mutex
	run   string
	epoch time.Time
	spans []span
}

func newTracer(run string) *tracer { return &tracer{run: run, epoch: time.Now()} }

func (t *tracer) begin(parent, rank int, name string) int {
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name, Rank: rank,
		StartUs: float64(now.Nanoseconds()) / 1e3})
	return id
}

func (t *tracer) end(id int) {
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].EndUs = float64(now.Nanoseconds()) / 1e3
	t.mu.Unlock()
}

// call records one span around f.
func (t *tracer) call(parent, rank int, name string, f func() error) error {
	id := t.begin(parent, rank, name)
	err := f()
	t.end(id)
	return err
}

// seconds lists the durations of rank 0's spans called name under parent.
func (t *tracer) seconds(parent int, name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Parent == parent && s.Name == name && s.Rank == 0 {
			out = append(out, (s.EndUs-s.StartUs)/1e6)
		}
	}
	return out
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	t.mu.Lock()
	for i := range t.spans {
		if err = enc.Encode(&t.spans[i]); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// mesh is n started loopback endpoints that all know each other.
type mesh struct {
	eps   []*tcpnet.Endpoint
	procs []transport.ProcID
}

func newMesh(t *tracer, parent, n int) (*mesh, error) {
	m := &mesh{}
	peers := map[transport.ProcID]string{}
	for i := 0; i < n; i++ {
		var ep *tcpnet.Endpoint
		err := t.call(parent, i, "tcpnet.Listen", func() (err error) {
			ep, err = tcpnet.Listen("127.0.0.1:0", tcpnet.Config{})
			return err
		})
		if err != nil {
			m.close()
			return nil, err
		}
		m.eps = append(m.eps, ep)
		m.procs = append(m.procs, transport.ProcID(i))
		peers[transport.ProcID(i)] = ep.Addr()
	}
	for i, ep := range m.eps {
		_ = t.call(parent, i, "tcpnet.Start", func() error { ep.Start(transport.ProcID(i), peers); return nil })
	}
	return m, nil
}

func (m *mesh) close() {
	for _, ep := range m.eps {
		ep.Close()
	}
}

// world builds one communicator per endpoint over the first size procs.
func (m *mesh) world(size int) ([]*mpi.Comm, error) {
	comms := make([]*mpi.Comm, size)
	for i := 0; i < size; i++ {
		c, err := mpi.World(mpi.Attach(m.eps[i]), m.procs[:size])
		if err != nil {
			return nil, err
		}
		comms[i] = c
	}
	return comms, nil
}

// each runs f for ranks 0..n-1 concurrently and returns the first error
// once all have returned.
func each(n int, f func(rank int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = f(r)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			return fmt.Errorf("rank %d: %w", r, err)
		}
	}
	return nil
}

func filled(n, rank int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(rank + 1)
	}
	return v
}

// repeatMedian runs f reps times and returns the median of what it
// measured (seconds).
func repeatMedian(reps int, f func() (float64, error)) (float64, error) {
	var s []float64
	for i := 0; i < reps; i++ {
		v, err := f()
		if err != nil {
			return 0, err
		}
		s = append(s, v)
	}
	return median(s), nil
}

const probeTag = 77

// runProbe measures every [probe] metric. n and codec are the workload's,
// so mpi.allreduce_ms is the bare collective the workload's step wraps.
// A probe that fails reports its metrics as absent and its error.
func runProbe(t *tracer, n int, codec mpi.WireCodec) (map[string]float64, []string) {
	out := map[string]float64{}
	var problems []string
	for _, p := range []struct {
		name string
		run  func(t *tracer, root int, out map[string]float64) error
	}{
		{"codec", probeCodec},
		{"pingpong", probePingpong},
		{"stream", probeStream},
		{"mesh_dial", probeMeshDial},
		{"send_dead_peer", probeSendDeadPeer},
		{"collectives", func(t *tracer, root int, out map[string]float64) error {
			return probeCollectives(t, root, out, n, codec)
		}},
		{"shrink", probeShrink},
		{"repair", probeRepair},
		{"grow", probeGrow},
		{"rendezvous_join", probeJoin},
		{"state_xfer", probeStateXfer},
		{"decide", probeDecide},
	} {
		root := t.begin(0, 0, "probe."+p.name)
		err := p.run(t, root, out)
		t.end(root)
		if err != nil {
			problems = append(problems, fmt.Sprintf("probe %s: %v", p.name, err))
		}
	}
	return out, problems
}

// probeCodec: EncodePayload/DecodePayload on the 16 MiB []float64 the
// steady_16m step moves.
func probeCodec(t *tracer, root int, out map[string]float64) error {
	v := filled(2<<20, 0)
	var enc []byte
	round := func(spans bool) error {
		var err error
		encode := func() error { enc, err = transport.EncodePayload(v); return err }
		decode := func() error { _, err = transport.DecodePayload(enc); return err }
		if !spans {
			if err := encode(); err != nil {
				return err
			}
			return decode()
		}
		if err := t.call(root, 0, "transport.EncodePayload", encode); err != nil {
			return err
		}
		return t.call(root, 0, "transport.DecodePayload", decode)
	}
	for i := 0; i < 8; i++ {
		if err := round(true); err != nil {
			return err
		}
	}
	mb := float64(len(enc)) / 1e6
	out["transport.encode_mb_per_s"] = mb / median(t.seconds(root, "transport.EncodePayload"))
	out["transport.decode_mb_per_s"] = mb / median(t.seconds(root, "transport.DecodePayload"))
	// Allocations are counted on a loop without spans, whose bookkeeping
	// would otherwise be charged to the codec.
	var failure error
	out["transport.codec_allocs_per_op"] = testing.AllocsPerRun(3, func() {
		if err := round(false); err != nil {
			failure = err
		}
	})
	return failure
}

// probePingpong: 8 KiB Send/Recv round trips between two endpoints, the
// per-message cost a steady_8k step pays several times.
func probePingpong(t *tracer, root int, out map[string]float64) error {
	m, err := newMesh(t, root, 2)
	if err != nil {
		return err
	}
	defer m.close()
	const rounds = 2000
	payload := filled(1024, 0)
	err = each(2, func(rank int) error {
		ep, peer := m.eps[rank], m.procs[1-rank]
		for i := 0; i < rounds; i++ {
			if rank == 1 {
				msg, err := ep.Recv(peer, probeTag)
				if err != nil {
					return err
				}
				if err := ep.Send(peer, probeTag, msg.Data, msg.Bytes); err != nil {
					return err
				}
				continue
			}
			pair := t.begin(root, 0, "tcpnet.pingpong")
			if err := t.call(pair, 0, "tcpnet.Send", func() error { return ep.Send(peer, probeTag, payload, 8<<10) }); err != nil {
				return err
			}
			if err := t.call(pair, 0, "tcpnet.Recv", func() error {
				msg, err := ep.Recv(peer, probeTag)
				transport.ReleaseMessage(msg)
				return err
			}); err != nil {
				return err
			}
			t.end(pair)
		}
		return nil
	})
	out["tcpnet.pingpong_us"] = median(t.seconds(root, "tcpnet.pingpong")) * 1e6
	return err
}

// probeStream: one-way 4 MiB frames, the zero-copy send and in-place
// receive paths the 16 MiB workloads live on.
func probeStream(t *tracer, root int, out map[string]float64) error {
	m, err := newMesh(t, root, 2)
	if err != nil {
		return err
	}
	defer m.close()
	const frames, elems = 48, 512 << 10
	payload := filled(elems, 0)
	start := time.Now()
	err = each(2, func(rank int) error {
		ep, peer := m.eps[rank], m.procs[1-rank]
		for i := 0; i < frames; i++ {
			if rank == 0 {
				if err := t.call(root, 0, "tcpnet.Send", func() error { return ep.Send(peer, probeTag, payload, elems*8) }); err != nil {
					return err
				}
				continue
			}
			msg, err := ep.Recv(peer, probeTag)
			if err != nil {
				return err
			}
			transport.ReleaseMessage(msg)
		}
		return nil
	})
	out["tcpnet.stream_mb_per_s"] = float64(frames*elems*8) / 1e6 / time.Since(start).Seconds()
	return err
}

// probeMeshDial: 4 × Listen + Start + a first Send on every pair — the
// connection set-up a cold launch pays before its first step.
func probeMeshDial(t *tracer, root int, out map[string]float64) error {
	sec, err := repeatMedian(5, func() (float64, error) {
		start := time.Now()
		m, err := newMesh(t, root, 4)
		if err != nil {
			return 0, err
		}
		defer m.close()
		err = each(4, func(rank int) error {
			ep := m.eps[rank]
			for _, p := range m.procs {
				if int(p) == rank {
					continue
				}
				if err := t.call(root, rank, "tcpnet.Send", func() error { return ep.Send(p, probeTag, []float64{1}, 8) }); err != nil {
					return err
				}
			}
			for i := 0; i < 3; i++ {
				msg, err := ep.Recv(transport.AnySource, probeTag)
				if err != nil {
					return err
				}
				transport.ReleaseMessage(msg)
			}
			return nil
		})
		return time.Since(start).Seconds(), err
	})
	out["tcpnet.mesh_dial_ms"] = sec * 1e3
	return err
}

// probeSendDeadPeer: how long Send keeps trying once the destination is
// gone and no MarkDead has arrived — the window in which a survivor's
// retry is stuck in dial back-off instead of repairing.
func probeSendDeadPeer(t *tracer, root int, out map[string]float64) error {
	m, err := newMesh(t, root, 2)
	if err != nil {
		return err
	}
	defer m.close()
	if err := m.eps[0].Send(1, probeTag, []float64{1}, 8); err != nil {
		return err
	}
	msg, err := m.eps[1].Recv(0, probeTag)
	if err != nil {
		return err
	}
	transport.ReleaseMessage(msg)
	m.eps[1].Close()
	start := time.Now()
	// The first write after the close can still land in the kernel's
	// buffer; the send that notices the reset is the one that blocks.
	for i := 0; i < 100; i++ {
		err := t.call(root, 0, "tcpnet.Send", func() error { return m.eps[0].Send(1, probeTag, []float64{1}, 8) })
		if err != nil {
			out["tcpnet.send_dead_peer_ms"] = time.Since(start).Seconds() * 1e3
			return nil
		}
	}
	return fmt.Errorf("100 sends to a closed endpoint all succeeded")
}

func allreduceIters(n int) int {
	switch {
	case n <= 4<<10:
		return 400
	case n <= 256<<10:
		return 60
	case n <= 1<<20:
		return 20
	default:
		return 8
	}
}

// probeCollectives runs, on one healthy world of 4: the bare allreduce at
// the workload's size and codec, Agree, and the 8 KiB allreduce through
// mpi and then through the ulfm wrapper on the same connections, whose
// difference is the wrapper.
func probeCollectives(t *tracer, root int, out map[string]float64, n int, codec mpi.WireCodec) error {
	m, err := newMesh(t, root, 4)
	if err != nil {
		return err
	}
	defer m.close()
	comms, err := m.world(4)
	if err != nil {
		return err
	}
	opts := mpi.AllreduceOptions{Algo: mpi.AlgoAuto, Codec: codec}
	iters := allreduceIters(n)
	err = each(4, func(rank int) error {
		data := make([]float64, n)
		for i := 0; i < iters; i++ {
			for j := range data {
				data[j] = float64(rank + 1)
			}
			if err := t.call(root, rank, "mpi.AllreduceOpts", func() error {
				return mpi.AllreduceOpts(comms[rank], data, mpi.OpSum, opts)
			}); err != nil {
				return err
			}
			if want := 10.0; data[0] != want && codec == mpi.CodecRaw {
				return fmt.Errorf("allreduce gave %v, want %v", data[0], want)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	out["mpi.allreduce_ms"] = median(t.seconds(root, "mpi.AllreduceOpts")) * 1e3

	err = each(4, func(rank int) error {
		for i := 0; i < 200; i++ {
			if err := t.call(root, rank, "mpi.Agree", func() error { _, err := comms[rank].Agree(1); return err }); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	out["mpi.agree_us"] = median(t.seconds(root, "mpi.Agree")) * 1e6

	// One loop after the other, not alternating: the wrapper's closing
	// Agree releases rank 0 first, and an mpi call issued right behind it
	// would be charged the wait for the others.
	small := mpi.AllreduceOptions{Algo: mpi.AlgoAuto}
	err = each(4, func(rank int) error {
		r := ulfm.New(comms[rank], nil, ulfm.DefaultPolicy())
		data := make([]float64, 1024)
		for i := 0; i < 300; i++ {
			if err := t.call(root, rank, "mpi.AllreduceOpts.8k", func() error {
				return mpi.AllreduceOpts(comms[rank], data, mpi.OpSum, small)
			}); err != nil {
				return err
			}
		}
		for i := 0; i < 300; i++ {
			if err := t.call(root, rank, "ulfm.AllreduceOpts.8k", func() error {
				return ulfm.AllreduceOpts(r, data, mpi.OpSum, small)
			}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	bare := median(t.seconds(root, "mpi.AllreduceOpts.8k"))
	out["ulfm.wrapper_overhead_pct"] = (median(t.seconds(root, "ulfm.AllreduceOpts.8k")) - bare) / bare * 100
	return nil
}

// brokenWorld returns a world of 4 that has exchanged one allreduce (so
// every connection exists) and then lost rank 3: its endpoint is closed
// and every survivor has been told (MarkDead), which is the state the
// rendezvous verdict leaves elasticd in. The returned time is when the
// last MarkDead returned.
func brokenWorld(t *tracer, root int) (*mesh, []*mpi.Comm, time.Time, error) {
	m, err := newMesh(t, root, 4)
	if err != nil {
		return nil, nil, time.Time{}, err
	}
	comms, err := m.world(4)
	if err == nil {
		err = each(4, func(rank int) error { return mpi.Allreduce(comms[rank], filled(1024, rank), mpi.OpSum) })
	}
	if err != nil {
		m.close()
		return nil, nil, time.Time{}, err
	}
	m.eps[3].Close()
	for _, ep := range m.eps[:3] {
		ep.MarkDead(3)
	}
	return m, comms[:3], time.Now(), nil
}

// probeShrink: Revoke + Agree + Shrink on the survivors, as the ulfm
// repair pipeline issues them, from verdict to the slowest survivor.
func probeShrink(t *tracer, root int, out map[string]float64) error {
	sec, err := repeatMedian(3, func() (float64, error) {
		m, comms, start, err := brokenWorld(t, root)
		if err != nil {
			return 0, err
		}
		defer m.close()
		err = each(3, func(rank int) error {
			c := comms[rank]
			_ = t.call(root, rank, "mpi.Revoke", func() error { c.Revoke(); return nil })
			c.FailureAck()
			if err := t.call(root, rank, "mpi.Agree", func() error { _, err := c.Agree(1); return err }); err != nil && !mpi.IsProcFailed(err) {
				return err
			}
			return t.call(root, rank, "mpi.Shrink", func() error {
				s, err := c.Shrink()
				if err == nil && s.Size() != 3 {
					err = fmt.Errorf("shrunk to %d, want 3", s.Size())
				}
				return err
			})
		})
		return time.Since(start).Seconds(), err
	})
	out["mpi.shrink_ms"] = sec * 1e3
	return err
}

// probeRepair: the same broken world through ulfm.AllreduceOpts — the
// call returns only after revoke, agree, shrink and the retried
// reduction, at size 3.
func probeRepair(t *tracer, root int, out map[string]float64) error {
	sec, err := repeatMedian(3, func() (float64, error) {
		m, comms, start, err := brokenWorld(t, root)
		if err != nil {
			return 0, err
		}
		defer m.close()
		err = each(3, func(rank int) error {
			r := ulfm.New(comms[rank], nil, ulfm.DefaultPolicy())
			data := filled(1024, rank)
			if err := t.call(root, rank, "ulfm.AllreduceOpts", func() error {
				return ulfm.AllreduceOpts(r, data, mpi.OpSum, mpi.AllreduceOptions{})
			}); err != nil {
				return err
			}
			if r.Size() != 3 || data[0] != 6 {
				return fmt.Errorf("repaired to size %d sum %v, want 3 and 6", r.Size(), data[0])
			}
			return nil
		})
		return time.Since(start).Seconds(), err
	})
	out["ulfm.repair_ms"] = sec * 1e3
	return err
}

// probeGrow: a world of 3 admits one Join-ing endpoint through
// ulfm.Grow, start to the slowest participant.
func probeGrow(t *tracer, root int, out map[string]float64) error {
	sec, err := repeatMedian(3, func() (float64, error) {
		m, err := newMesh(t, root, 4)
		if err != nil {
			return 0, err
		}
		defer m.close()
		comms, err := m.world(3)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		err = each(4, func(rank int) error {
			if rank == 3 {
				return t.call(root, rank, "mpi.Join", func() error {
					c, err := mpi.Join(mpi.Attach(m.eps[3]))
					if err == nil && c.Size() != 4 {
						err = fmt.Errorf("joined a world of %d, want 4", c.Size())
					}
					return err
				})
			}
			r := ulfm.New(comms[rank], nil, ulfm.DefaultPolicy())
			var admit []transport.ProcID
			if rank == 0 {
				admit = []transport.ProcID{3}
			}
			return t.call(root, rank, "ulfm.Grow", func() error {
				_, err := r.Grow(admit)
				if err == nil && r.Size() != 4 {
					err = fmt.Errorf("grew to %d, want 4", r.Size())
				}
				return err
			})
		})
		return time.Since(start).Seconds(), err
	})
	out["ulfm.grow_ms"] = sec * 1e3
	return err
}

// probeJoin: ListenAndServe plus four concurrent JoinWith, the rendezvous
// share of a cold launch.
func probeJoin(t *tracer, root int, out map[string]float64) error {
	sec, err := repeatMedian(5, func() (float64, error) {
		start := time.Now()
		var srv *rendezvous.Server
		err := t.call(root, 0, "rendezvous.ListenAndServe", func() (err error) {
			srv, err = rendezvous.ListenAndServe("127.0.0.1:0", rendezvous.Config{World: 4, HeartbeatInterval: 100 * time.Millisecond})
			return err
		})
		if err != nil {
			return 0, err
		}
		defer srv.Close()
		clients := make([]*rendezvous.Client, 4)
		err = each(4, func(rank int) error {
			return t.call(root, rank, "rendezvous.JoinWith", func() (err error) {
				clients[rank], err = rendezvous.JoinWith(srv.Addr(), rendezvous.JoinOptions{
					SelfAddr: fmt.Sprintf("127.0.0.1:%d", 1+rank), // recorded, never dialed
					Timeout:  10 * time.Second,
				})
				return err
			})
		})
		sec := time.Since(start).Seconds()
		for _, c := range clients {
			if c != nil {
				c.Close()
			}
		}
		return sec, err
	})
	out["rendezvous.join_ms"] = sec * 1e3
	return err
}

// probeStateXfer: the newcomer state stream kill_swap puts on the path,
// 4 MiB and uncapped as there.
func probeStateXfer(t *tracer, root int, out map[string]float64) error {
	m, err := newMesh(t, root, 2)
	if err != nil {
		return err
	}
	defer m.close()
	state := make([]byte, 4<<20)
	for i := range state {
		state[i] = byte(i)
	}
	for i := 0; i < 5; i++ {
		err := each(2, func(rank int) error {
			if rank == 0 {
				return t.call(root, 0, "autopilot.SendState", func() error {
					return autopilot.SendState(m.eps[0], 1, state, autopilot.XferOptions{})
				})
			}
			got, _, err := autopilot.RecvState(m.eps[1])
			if err == nil && len(got) != len(state) {
				err = fmt.Errorf("received %d state bytes, want %d", len(got), len(state))
			}
			return err
		})
		if err != nil {
			return err
		}
	}
	out["autopilot.state_xfer_mb_per_s"] = float64(len(state)) / 1e6 / median(t.seconds(root, "autopilot.SendState"))
	return nil
}

// probeDecide: the controller's swap-in decision after it has seen one
// member disappear with one spare in the pool.
func probeDecide(t *tracer, root int, out map[string]float64) error {
	four := []transport.ProcID{0, 1, 2, 3}
	for i := 0; i < 1000; i++ {
		c := autopilot.New(autopilot.Config{Target: 4})
		c.ObserveMembers(0, four)
		c.ObserveMembers(1, four[:3])
		c.ObservePool([]transport.ProcID{4})
		var d autopilot.Decision
		_ = t.call(root, 0, "autopilot.Decide", func() error { d = c.Decide(1, 10); return nil })
		if len(d.Admit) != 1 {
			return fmt.Errorf("decision %+v admits %d spares, want 1", d, len(d.Admit))
		}
	}
	out["autopilot.decide_us"] = median(t.seconds(root, "autopilot.Decide")) * 1e6
	return nil
}
