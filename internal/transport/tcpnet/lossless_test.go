package tcpnet_test

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/transport"
	"repro/internal/transport/tcpnet"
	"repro/internal/vtime"
)

// loopbackWorld spins up a fully connected loopback TCP world and runs
// body at every rank, returning each rank's tensor afterwards. Once the
// endpoints are closed the frame pool must be back at its baseline: a
// lazy payload released twice, or never, shows there.
func loopbackWorld(t *testing.T, world int, cfg tcpnet.Config, inputs [][]float32,
	body func(c *mpi.Comm, data []float32) error) [][]float32 {
	t.Helper()
	bufs0 := tcpnet.OutstandingFrameBufs()
	eps := make([]*tcpnet.Endpoint, world)
	peers := make(map[transport.ProcID]string, world)
	procs := make([]transport.ProcID, world)
	for i := 0; i < world; i++ {
		ep, err := tcpnet.Listen("127.0.0.1:0", cfg)
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = ep
		peers[transport.ProcID(i)] = ep.Addr()
		procs[i] = transport.ProcID(i)
	}
	defer func() {
		for _, ep := range eps {
			ep.Close()
		}
	}()
	for i, ep := range eps {
		ep.Start(transport.ProcID(i), peers)
	}
	out := make([][]float32, world)
	errs := make([]error, world)
	done := make(chan int, world)
	for i, ep := range eps {
		go func(rank int, ep *tcpnet.Endpoint) {
			defer func() { done <- rank }()
			comm, err := mpi.World(mpi.Attach(ep), procs)
			if err != nil {
				errs[rank] = err
				return
			}
			data := append([]float32(nil), inputs[rank]...)
			errs[rank] = body(comm, data)
			out[rank] = data
		}(i, ep)
	}
	for range eps {
		<-done
	}
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	for _, ep := range eps {
		ep.Close()
	}
	if !vtime.WaitUntil(5*time.Second, func() bool { return tcpnet.OutstandingFrameBufs() == bufs0 }) {
		t.Fatalf("%d pooled frame buffers outstanding, %d before the run", tcpnet.OutstandingFrameBufs(), bufs0)
	}
	return out
}

// The whole round-2 lossless fast path — raw wire codec, scatter-gather
// writev sends, lazy zero-copy payload delivery, in-place reduction —
// must be bit-identical to the seed ring. ZeroCopyMin is forced to 1 so
// every frame, chunk fragments included, takes the vectored send and
// RawPayload receive paths.
func TestZeroCopyLosslessBitIdenticalToSeedRing(t *testing.T) {
	const world = 4
	const elems = 64<<10 + 7 // > smallThreshold bytes, uneven split
	inputs := make([][]float32, world)
	for r := range inputs {
		rng := rand.New(rand.NewSource(int64(42 + r)))
		inputs[r] = make([]float32, elems)
		for i := range inputs[r] {
			inputs[r][i] = float32(rng.NormFloat64()) * float32(math.Pow(2, float64(rng.Intn(12)-6)))
		}
	}
	base := tcpnet.Config{DialRetries: 4, DialBackoff: 20 * time.Millisecond, DialTimeout: time.Second}
	zc := base
	zc.ZeroCopyMin = 1

	// Reference: the seed entry point on a default-config world (the
	// pre-round-2 data plane: 16 KiB zero-copy floor, static auto pick).
	seed := loopbackWorld(t, world, base, inputs, func(c *mpi.Comm, data []float32) error {
		return mpi.Allreduce(c, data, mpi.OpSum)
	})
	for _, tc := range []struct {
		name string
		opts mpi.AllreduceOptions
	}{
		{"ring", mpi.AllreduceOptions{Algo: mpi.AlgoRing}},
		{"pipelined", mpi.AllreduceOptions{Algo: mpi.AlgoPipelinedRing, Chunks: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := loopbackWorld(t, world, zc, inputs, func(c *mpi.Comm, data []float32) error {
				return mpi.AllreduceOpts(c, data, mpi.OpSum, tc.opts)
			})
			for r := 0; r < world; r++ {
				for i := range seed[r] {
					if math.Float32bits(got[r][i]) != math.Float32bits(seed[r][i]) {
						t.Fatalf("rank %d elem %d: zero-copy %s = %v (%08x), seed ring = %v (%08x)",
							r, i, tc.name, got[r][i], math.Float32bits(got[r][i]),
							seed[r][i], math.Float32bits(seed[r][i]))
					}
				}
			}
		})
	}
}

// countingConn tallies the bytes written through one connection into a
// counter shared by the whole world. Wrapping hides the *net.TCPConn, so
// sends lose writev and go out as plain writes; the byte count is the same.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.n.Add(int64(n))
	return n, err
}

// Compressed traffic under the forced zero-copy floor: the fp16 wire
// payloads ride the same vectored-send/lazy-delivery path, and every
// rank must still agree bit for bit (AsF16 views into the frame buffer
// must decode the same bits the sender wrote, including the chunks the
// allgather forwards as received). The same inputs then run raw and
// fp16 through byte-counting connections: fp16 must put at most 0.55x
// the raw bytes on the wire (half, plus framing). Worlds 4 and 5 at 8
// chunks hold up to eight forwarded frames per rank at a time.
func TestZeroCopyCompressedUniform(t *testing.T) {
	const elems = 48 << 10
	cfg := tcpnet.Config{DialRetries: 4, DialBackoff: 20 * time.Millisecond, DialTimeout: time.Second, ZeroCopyMin: 1}
	for _, tc := range []struct{ world, chunks int }{{3, 2}, {4, 2}, {4, 8}, {5, 8}} {
		t.Run(fmt.Sprintf("world%d/k%d", tc.world, tc.chunks), func(t *testing.T) {
			inputs := make([][]float32, tc.world)
			for r := range inputs {
				rng := rand.New(rand.NewSource(int64(9 + r)))
				inputs[r] = make([]float32, elems)
				for i := range inputs[r] {
					inputs[r][i] = float32(rng.NormFloat64())
				}
			}
			run := func(cfg tcpnet.Config, codec mpi.WireCodec) [][]float32 {
				return loopbackWorld(t, tc.world, cfg, inputs, func(c *mpi.Comm, data []float32) error {
					return mpi.AllreduceOpts(c, data, mpi.OpSum,
						mpi.AllreduceOptions{Algo: mpi.AlgoPipelinedRing, Chunks: tc.chunks, Codec: codec})
				})
			}
			got := run(cfg, mpi.CodecFP16)
			for r := 1; r < tc.world; r++ {
				for i := range got[0] {
					if math.Float32bits(got[r][i]) != math.Float32bits(got[0][i]) {
						t.Fatalf("rank %d elem %d = %v, rank 0 = %v — compressed zero-copy path diverged",
							r, i, got[r][i], got[0][i])
					}
				}
			}

			wireBytes := func(codec mpi.WireCodec) int64 {
				var n atomic.Int64
				counted := cfg
				counted.WrapConn = func(conn net.Conn, _ bool) net.Conn { return countingConn{conn, &n} }
				run(counted, codec)
				return n.Load()
			}
			raw, fp16 := wireBytes(mpi.CodecRaw), wireBytes(mpi.CodecFP16)
			if raw == 0 || float64(fp16) > 0.55*float64(raw) {
				t.Fatalf("fp16 moved %d wire bytes, raw %d: want fp16 <= 0.55x raw", fp16, raw)
			}
			t.Logf("wire bytes: raw %d, fp16 %d (%.3fx)", raw, fp16, float64(fp16)/float64(raw))
		})
	}
}
