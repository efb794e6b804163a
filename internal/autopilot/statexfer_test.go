package autopilot

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/transport/tcpnet"
	"repro/internal/vtime"
)

func newXferCluster() *simnet.Cluster {
	return simnet.New(simnet.Config{
		Nodes:              1,
		ProcsPerNode:       2,
		IntraNodeLatency:   1e-6,
		InterNodeLatency:   3e-6,
		IntraNodeBandwidth: 50e9,
		InterNodeBandwidth: 4e9,
		DetectLatency:      1e-3,
		SpawnDelay:         5,
	})
}

// TestStateStreamByteIdentical is the integrity half of the chunked
// state-stream property: for randomized state sizes and chunk
// boundaries (including chunk > state, chunk = 1, and sizes straddling
// chunk multiples), the receiver reassembles a byte-identical copy and
// the offer's step survives the round trip. The limiter runs on a
// virtual clock, so the capped trials spend zero wall time sleeping.
func TestStateStreamByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		// Sizes stay modest and chunks no smaller than size/256 so a
		// trial is at most a few hundred simnet messages; the dedicated
		// edge trials below cover degenerate chunkings.
		size := 1 + rng.Intn(256<<10)
		chunk := 1 + size/256 + rng.Intn(size+1024) // sometimes > size
		capped := trial%2 == 0

		state := make([]byte, size)
		rng.Read(state)

		c := newXferCluster()
		procs := c.Procs()
		sender, receiver := c.Endpoint(procs[0]), c.Endpoint(procs[1])

		opts := XferOptions{ChunkBytes: chunk, Step: int64(trial)}
		if capped {
			clk := &vtime.Clock{}
			opts.Limiter = NewLimiterFunc(64*1024, 16*1024, clk.Now, clk.Advance)
		}

		var wg sync.WaitGroup
		var sendErr error
		wg.Add(1)
		go func() {
			defer wg.Done()
			sendErr = SendState(sender, receiver.ID(), state, opts)
		}()
		got, step, err := RecvState(receiver)
		wg.Wait()
		if err != nil || sendErr != nil {
			t.Fatalf("trial %d (size=%d chunk=%d): recv err=%v send err=%v", trial, size, chunk, err, sendErr)
		}
		if step != int64(trial) {
			t.Fatalf("trial %d: step %d survived as %d", trial, trial, step)
		}
		if !bytes.Equal(got, state) {
			t.Fatalf("trial %d (size=%d chunk=%d): received state differs from source", trial, size, chunk)
		}
	}
}

// TestStateStreamDegenerateChunks pins the boundary chunkings the
// randomized trials keep cheap: one-byte chunks, chunk exactly the
// state size, chunk one below and one above, and a one-byte state.
func TestStateStreamDegenerateChunks(t *testing.T) {
	state := make([]byte, 257)
	rand.New(rand.NewSource(3)).Read(state)
	for _, chunk := range []int{1, len(state) - 1, len(state), len(state) + 1} {
		c := newXferCluster()
		procs := c.Procs()
		sender, receiver := c.Endpoint(procs[0]), c.Endpoint(procs[1])
		var wg sync.WaitGroup
		var sendErr error
		wg.Add(1)
		go func() {
			defer wg.Done()
			sendErr = SendState(sender, receiver.ID(), state, XferOptions{ChunkBytes: chunk})
		}()
		got, _, err := RecvState(receiver)
		wg.Wait()
		if err != nil || sendErr != nil {
			t.Fatalf("chunk=%d: recv err=%v send err=%v", chunk, err, sendErr)
		}
		if !bytes.Equal(got, state) {
			t.Fatalf("chunk=%d: received state differs from source", chunk)
		}
	}
}

// TestStateStreamSenderSeesReceiverDeath: killing the receiver
// mid-stream must surface as an error at the sender (either on a chunk
// send or on the ack wait), never a hang — that error is what converts
// a doomed swap-in into a recorded swap failure.
func TestStateStreamSenderSeesReceiverDeath(t *testing.T) {
	c := newXferCluster()
	procs := c.Procs()
	sender, receiver := c.Endpoint(procs[0]), c.Endpoint(procs[1])

	state := make([]byte, 1<<20)
	done := make(chan error, 1)
	go func() {
		done <- SendState(sender, receiver.ID(), state, XferOptions{ChunkBytes: 4 << 10})
	}()
	// Receive the offer and a few chunks, then die mid-stream.
	if _, err := receiver.Recv(transport.AnySource, tagStateOffer); err != nil {
		t.Fatalf("offer: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := receiver.Recv(sender.ID(), tagStateChunk); err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
	}
	c.Kill(receiver.ID())
	if err := <-done; err == nil {
		t.Fatal("sender completed against a dead receiver")
	}
}

// TestStateStreamCorruptionRejected: a stream whose bytes do not match
// the offered checksum is refused by the receiver and the sender sees a
// rejected ack.
func TestStateStreamCorruptionRejected(t *testing.T) {
	c := newXferCluster()
	procs := c.Procs()
	sender, receiver := c.Endpoint(procs[0]), c.Endpoint(procs[1])

	state := []byte("the model weights at step 12")
	var wg sync.WaitGroup
	var sendErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Hand-roll a sender that lies: offer advertises state's CRC but
		// the chunk carries different bytes.
		offer := stateOffer{total: int64(len(state)), chunkBytes: len(state), crc: 0xdeadbeef, step: 1}
		if err := sender.Send(receiver.ID(), tagStateOffer, offer.words(), 32); err != nil {
			sendErr = err
			return
		}
		if err := sender.Send(receiver.ID(), tagStateChunk, state, int64(len(state))); err != nil {
			sendErr = err
			return
		}
		m, err := sender.Recv(receiver.ID(), tagStateAck)
		if err != nil {
			sendErr = err
			return
		}
		if ack, err := transport.DecodeWords(m.Data, decodeAck); err != nil || ack.ok {
			t.Errorf("receiver acked a corrupt stream (%+v, %v)", ack, err)
		}
	}()
	_, _, err := RecvState(receiver)
	wg.Wait()
	if sendErr != nil {
		t.Fatalf("sender: %v", sendErr)
	}
	if err == nil {
		t.Fatal("RecvState accepted a checksum mismatch")
	}
}

// TestStateTransferTCP streams 1 MiB over loopback tcpnet: at the default
// zero-copy threshold the offer and ack arrive as decoded words and the
// chunks as lazy frame views; at threshold 1 every frame is a lazy view.
// Either way the state, its CRC and its step arrive intact, and every
// pooled frame buffer comes back.
func TestStateTransferTCP(t *testing.T) {
	for _, zc := range []int{0, 1} {
		t.Run(fmt.Sprintf("ZeroCopyMin=%d", zc), func(t *testing.T) {
			bufs0 := tcpnet.OutstandingFrameBufs()
			eps := make([]*tcpnet.Endpoint, 2)
			peers := make(map[transport.ProcID]string, len(eps))
			for i := range eps {
				ep, err := tcpnet.Listen("127.0.0.1:0", tcpnet.Config{ZeroCopyMin: zc})
				if err != nil {
					t.Fatal(err)
				}
				defer ep.Close()
				eps[i] = ep
				peers[transport.ProcID(i)] = ep.Addr()
			}
			for i, ep := range eps {
				ep.Start(transport.ProcID(i), peers)
			}

			state := make([]byte, 1<<20)
			rand.New(rand.NewSource(5)).Read(state)
			done := make(chan error, 1)
			go func() { done <- SendState(eps[0], 1, state, XferOptions{Step: 42}) }()
			got, step, err := RecvState(eps[1])
			if err != nil {
				eps[0].Close() // the sender would wait for an ack for ever
			}
			if sendErr := <-done; err != nil || sendErr != nil {
				t.Fatalf("recv err=%v send err=%v", err, sendErr)
			}
			if crc32.ChecksumIEEE(got) != crc32.ChecksumIEEE(state) || !bytes.Equal(got, state) {
				t.Fatalf("received %d bytes differ from the %d sent", len(got), len(state))
			}
			if step != 42 {
				t.Fatalf("step 42 arrived as %d", step)
			}
			for _, ep := range eps {
				ep.Close()
			}
			if !vtime.WaitUntil(5*time.Second, func() bool { return tcpnet.OutstandingFrameBufs() == bufs0 }) {
				t.Errorf("%d pooled frame buffers outstanding, %d before the run", tcpnet.OutstandingFrameBufs(), bufs0)
			}
		})
	}
}
