package chaos_test

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/transport/chaos"
	"repro/internal/transport/tcpnet"
)

// TestSendBorrowsUntilReturn pins Endpoint.Send's contract on every
// backend: Send borrows its payload only until it returns. The sender
// overwrites the slice the moment Send comes back, and the receiver must
// still see the original bits — through simnet's mailbox, through both
// tcpnet write paths (a contiguous frame below ZeroCopyMin, writev from
// the caller's slice above it), and through chaos's deferred deliveries
// (a held message released by the next send, a delayed one sent from a
// detached goroutine) and its duplicate.
func TestSendBorrowsUntilReturn(t *testing.T) {
	backends := []struct {
		name string
		pair func(t *testing.T) (send, recv transport.Endpoint)
	}{
		{"simnet", simnetPair},
		{"tcpnet", tcpnetPair},
	}
	faults := []struct {
		name string
		op   chaos.Op
	}{
		{"plain", -1},
		{"hold", chaos.OpHold},
		{"delay", chaos.OpDelay},
		{"dup", chaos.OpDup},
	}
	// 64 float64 = 512 B rides the pooled frame; 4096 float64 = 32 KiB
	// is above tcpnet.DefaultZeroCopyMin and goes out by writev.
	sizes := []int{64, 4096}
	for _, be := range backends {
		for _, f := range faults {
			for _, n := range sizes {
				t.Run(fmt.Sprintf("%s/%s/%d", be.name, f.name, n), func(t *testing.T) {
					send, recv := be.pair(t)
					var eng *chaos.Engine
					if f.op >= 0 {
						r := chaos.DataRule(f.name, f.op)
						r.Nth = 1
						r.Delay = 20 * time.Millisecond
						eng = chaos.New(chaos.Scenario{Name: "borrow", Seed: 1, Rules: []chaos.Rule{r}})
						send = eng.Wrap(send)
					}
					checkBorrow(t, send, recv, n, f.op == chaos.OpDup)
					if eng != nil {
						eng.Quiesce()
						if len(eng.Events()) != 1 {
							t.Fatalf("%s rule fired %d times, want 1", f.name, len(eng.Events()))
						}
					}
				})
			}
		}
	}
}

// checkBorrow sends two n-element messages on distinct tags from send to
// recv, scribbling over each payload as soon as its Send returns, then
// receives both (three messages when dup duplicates the first) and
// checks every element against what was sent. The second send is what
// releases a held first one.
func checkBorrow(t *testing.T, send, recv transport.Endpoint, n int, dup bool) {
	t.Helper()
	const tagA, tagB = 11, 12
	want := func(tag, i int) float64 { return float64(tag*100000 + i) }
	for _, tag := range []int{tagA, tagB} {
		v := make([]float64, n)
		for i := range v {
			v[i] = want(tag, i)
		}
		if err := send.Send(recv.ID(), tag, v, int64(8*n)); err != nil {
			t.Fatalf("send tag %d: %v", tag, err)
		}
		for i := range v {
			v[i] = math.NaN()
		}
	}
	tags := []int{tagA, tagB}
	if dup {
		tags = append(tags, tagA)
	}
	for _, tag := range tags {
		m, err := recv.Recv(send.ID(), tag)
		if err != nil {
			t.Fatalf("recv tag %d: %v", tag, err)
		}
		got := asFloat64s(t, m.Data)
		if len(got) != n {
			t.Fatalf("tag %d: got %d elements, want %d", tag, len(got), n)
		}
		for i, x := range got {
			if x != want(tag, i) {
				t.Fatalf("tag %d: element %d = %v, want %v: the receiver saw the sender's later writes",
					tag, i, x, want(tag, i))
			}
		}
	}
}

func asFloat64s(t *testing.T, data any) []float64 {
	t.Helper()
	if rp, ok := data.(*transport.RawPayload); ok {
		v, err := rp.Decode()
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		data = v
	}
	v, ok := data.([]float64)
	if !ok {
		t.Fatalf("payload is %T, want []float64", data)
	}
	return v
}

func simnetPair(t *testing.T) (transport.Endpoint, transport.Endpoint) {
	c := simnet.New(simnet.Config{
		Nodes:              1,
		ProcsPerNode:       2,
		IntraNodeLatency:   1e-6,
		InterNodeLatency:   3e-6,
		IntraNodeBandwidth: 50e9,
		InterNodeBandwidth: 4e9,
		DetectLatency:      1e-3,
		SpawnDelay:         5,
	})
	procs := c.Procs()
	return c.Endpoint(procs[0]), c.Endpoint(procs[1])
}

func tcpnetPair(t *testing.T) (transport.Endpoint, transport.Endpoint) {
	cfg := tcpnet.Config{DialRetries: 4, DialBackoff: 20 * time.Millisecond, DialTimeout: time.Second}
	eps := make([]*tcpnet.Endpoint, 2)
	peers := map[transport.ProcID]string{}
	for i := range eps {
		ep, err := tcpnet.Listen("127.0.0.1:0", cfg)
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		t.Cleanup(func() { ep.Close() })
		eps[i] = ep
		peers[transport.ProcID(i)] = ep.Addr()
	}
	for i, ep := range eps {
		ep.Start(transport.ProcID(i), peers)
	}
	return eps[0], eps[1]
}
