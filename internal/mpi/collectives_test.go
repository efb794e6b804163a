package mpi

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/simnet"
)

// harness spins up a world of n ranks on ppn-process nodes and runs body
// at every rank, failing the test on any rank error.
func world(t *testing.T, nodes, ppn int, body func(c *Comm) error) *simnet.Cluster {
	t.Helper()
	c := simnet.New(simnet.Config{
		Nodes:              nodes,
		ProcsPerNode:       ppn,
		IntraNodeLatency:   1e-6,
		InterNodeLatency:   3e-6,
		IntraNodeBandwidth: 50e9,
		InterNodeBandwidth: 4e9,
		DetectLatency:      1e-3,
		SpawnDelay:         5,
	})
	procs := c.Procs()
	errs := simnet.RunAll(c, procs, func(rank int, ep *simnet.Endpoint) error {
		p := Attach(ep)
		comm, err := World(p, procs)
		if err != nil {
			return err
		}
		return body(comm)
	})
	if err := simnet.FirstError(errs); err != nil {
		t.Fatalf("world(%d,%d): %v", nodes, ppn, err)
	}
	return c
}

func TestAllreduceSumMatchesSerial(t *testing.T) {
	for _, size := range []struct{ nodes, ppn int }{{1, 1}, {1, 2}, {2, 3}, {4, 2}, {3, 5}} {
		t.Run(fmt.Sprintf("%dx%d", size.nodes, size.ppn), func(t *testing.T) {
			n := size.nodes * size.ppn
			const elems = 1000
			var mu sync.Mutex
			results := make(map[int][]float32)
			world(t, size.nodes, size.ppn, func(c *Comm) error {
				data := make([]float32, elems)
				for i := range data {
					data[i] = float32(c.Rank()*elems + i)
				}
				if err := Allreduce(c, data, OpSum); err != nil {
					return err
				}
				mu.Lock()
				results[c.Rank()] = data
				mu.Unlock()
				return nil
			})
			// Expected: sum over ranks of (r*elems + i).
			for i := 0; i < elems; i++ {
				var want float32
				for r := 0; r < n; r++ {
					want += float32(r*elems + i)
				}
				for r := 0; r < n; r++ {
					if got := results[r][i]; got != want {
						t.Fatalf("rank %d elem %d = %v, want %v", r, i, got, want)
					}
				}
			}
		})
	}
}

func TestAllreduceLargeUsesRingAndIsCorrect(t *testing.T) {
	// > smallThreshold bytes forces the ring path.
	const elems = 40000 // 160 KB of float32
	var mu sync.Mutex
	results := make(map[int]float64)
	world(t, 2, 3, func(c *Comm) error {
		data := make([]float32, elems)
		for i := range data {
			data[i] = 1
		}
		if err := Allreduce(c, data, OpSum); err != nil {
			return err
		}
		var sum float64
		for _, v := range data {
			sum += float64(v)
		}
		mu.Lock()
		results[c.Rank()] = sum
		mu.Unlock()
		return nil
	})
	for r, sum := range results {
		if sum != 6*elems {
			t.Fatalf("rank %d sum = %v, want %v", r, sum, 6*elems)
		}
	}
}

func TestAllreduceOps(t *testing.T) {
	cases := []struct {
		op   Op
		want func(vals []float64) float64
	}{
		{OpSum, func(v []float64) float64 {
			s := 0.0
			for _, x := range v {
				s += x
			}
			return s
		}},
		{OpProd, func(v []float64) float64 {
			s := 1.0
			for _, x := range v {
				s *= x
			}
			return s
		}},
		{OpMax, func(v []float64) float64 {
			s := math.Inf(-1)
			for _, x := range v {
				s = math.Max(s, x)
			}
			return s
		}},
		{OpMin, func(v []float64) float64 {
			s := math.Inf(1)
			for _, x := range v {
				s = math.Min(s, x)
			}
			return s
		}},
	}
	for _, tc := range cases {
		t.Run(tc.op.String(), func(t *testing.T) {
			const n = 5
			vals := []float64{3, -1, 7, 2, 5}
			var mu sync.Mutex
			got := map[int]float64{}
			world(t, 1, n, func(c *Comm) error {
				data := []float64{vals[c.Rank()]}
				if err := Allreduce(c, data, tc.op); err != nil {
					return err
				}
				mu.Lock()
				got[c.Rank()] = data[0]
				mu.Unlock()
				return nil
			})
			want := tc.want(vals)
			for r := 0; r < n; r++ {
				if got[r] != want {
					t.Fatalf("%v: rank %d = %v, want %v", tc.op, r, got[r], want)
				}
			}
		})
	}
}

func TestAllreduceIntBitwiseOps(t *testing.T) {
	const n = 4
	vals := []uint32{0b1110, 0b0111, 0b1111, 0b1011}
	var mu sync.Mutex
	gotAnd := map[int]uint32{}
	gotOr := map[int]uint32{}
	world(t, 1, n, func(c *Comm) error {
		a := []uint32{vals[c.Rank()]}
		if err := Allreduce(c, a, OpBAnd); err != nil {
			return err
		}
		o := []uint32{vals[c.Rank()]}
		if err := Allreduce(c, o, OpBOr); err != nil {
			return err
		}
		mu.Lock()
		gotAnd[c.Rank()] = a[0]
		gotOr[c.Rank()] = o[0]
		mu.Unlock()
		return nil
	})
	for r := 0; r < n; r++ {
		if gotAnd[r] != 0b0010 {
			t.Fatalf("band rank %d = %b, want 0010", r, gotAnd[r])
		}
		if gotOr[r] != 0b1111 {
			t.Fatalf("bor rank %d = %b, want 1111", r, gotOr[r])
		}
	}
}

// Property: allreduce(sum) equals the serial elementwise sum for random
// vectors and random communicator sizes.
func TestAllreduceSumProperty(t *testing.T) {
	f := func(seed int64, sz uint8, ln uint16) bool {
		n := int(sz%7) + 1
		elems := int(ln%512) + 1
		rng := rand.New(rand.NewSource(seed))
		inputs := make([][]float64, n)
		want := make([]float64, elems)
		for r := range inputs {
			inputs[r] = make([]float64, elems)
			for i := range inputs[r] {
				inputs[r][i] = float64(rng.Intn(2000) - 1000)
				want[i] += inputs[r][i]
			}
		}
		okAll := true
		var mu sync.Mutex
		world(t, 1, n, func(c *Comm) error {
			data := append([]float64(nil), inputs[c.Rank()]...)
			if err := Allreduce(c, data, OpSum); err != nil {
				return err
			}
			for i := range data {
				if data[i] != want[i] {
					mu.Lock()
					okAll = false
					mu.Unlock()
					break
				}
			}
			return nil
		})
		return okAll
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestBcast(t *testing.T) {
	for _, root := range []int{0, 2, 5} {
		t.Run(fmt.Sprintf("root%d", root), func(t *testing.T) {
			var mu sync.Mutex
			got := map[int][]int64{}
			world(t, 2, 3, func(c *Comm) error {
				data := make([]int64, 10)
				if c.Rank() == root {
					for i := range data {
						data[i] = int64(100 + i)
					}
				}
				if err := Bcast(c, data, root); err != nil {
					return err
				}
				mu.Lock()
				got[c.Rank()] = data
				mu.Unlock()
				return nil
			})
			for r, data := range got {
				for i, v := range data {
					if v != int64(100+i) {
						t.Fatalf("rank %d elem %d = %d, want %d", r, i, v, 100+i)
					}
				}
			}
		})
	}
}

func TestBcastInvalidRoot(t *testing.T) {
	world(t, 1, 2, func(c *Comm) error {
		err := Bcast(c, []int{1}, 9)
		if err == nil {
			return fmt.Errorf("Bcast with invalid root should fail")
		}
		return nil
	})
}

func TestAllgather(t *testing.T) {
	const n = 6
	var mu sync.Mutex
	got := map[int][]int32{}
	world(t, 2, 3, func(c *Comm) error {
		send := []int32{int32(c.Rank() * 10), int32(c.Rank()*10 + 1)}
		recv := make([]int32, 2*n)
		if err := Allgather(c, send, recv); err != nil {
			return err
		}
		mu.Lock()
		got[c.Rank()] = recv
		mu.Unlock()
		return nil
	})
	for r := 0; r < n; r++ {
		for b := 0; b < n; b++ {
			if got[r][2*b] != int32(b*10) || got[r][2*b+1] != int32(b*10+1) {
				t.Fatalf("rank %d block %d = %v", r, b, got[r][2*b:2*b+2])
			}
		}
	}
}

func TestAllgatherLengthMismatch(t *testing.T) {
	world(t, 1, 2, func(c *Comm) error {
		if err := Allgather(c, []int{1}, make([]int, 5)); err == nil {
			return fmt.Errorf("length mismatch should error")
		}
		return nil
	})
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	world(t, 2, 2, func(c *Comm) error {
		// Rank 0 is slow; after the barrier everyone's clock must be at
		// least rank 0's pre-barrier time.
		if c.Rank() == 0 {
			c.Compute(1.0)
		}
		if err := Barrier(c); err != nil {
			return err
		}
		if c.Now() < 1.0 {
			return fmt.Errorf("rank %d clock %v after barrier, want >= 1.0", c.Rank(), c.Now())
		}
		return nil
	})
}

func TestAllreduceVirtualCostScalesWithBytes(t *testing.T) {
	timeFor := func(bytes int64) float64 {
		var mu sync.Mutex
		var maxT float64
		world(t, 4, 1, func(c *Comm) error {
			if err := AllreduceVirtual(c, bytes); err != nil {
				return err
			}
			mu.Lock()
			if c.Now() > maxT {
				maxT = c.Now()
			}
			mu.Unlock()
			return nil
		})
		return maxT
	}
	small := timeFor(1 << 20)
	big := timeFor(64 << 20)
	if big <= small {
		t.Fatalf("virtual allreduce cost should grow with size: %v vs %v", small, big)
	}
	// Ring allreduce moves ~2x the buffer; cost ratio should be roughly
	// proportional to bytes (within 3x slack for latency terms).
	if big > small*64*3 || big < small*64/3 {
		t.Fatalf("cost scaling off: small=%v big=%v ratio=%v, want ~64x", small, big, big/small)
	}
}

func TestSendRecvP2P(t *testing.T) {
	world(t, 1, 3, func(c *Comm) error {
		switch c.Rank() {
		case 0:
			return Send(c, 2, 11, []float32{1, 2, 3})
		case 2:
			data, err := Recv[float32](c, 0, 11)
			if err != nil {
				return err
			}
			if len(data) != 3 || data[1] != 2 {
				return fmt.Errorf("p2p recv = %v", data)
			}
			return nil
		}
		return nil
	})
}

func TestSendCopiesData(t *testing.T) {
	world(t, 1, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			buf := []int{1, 2, 3}
			if err := Send(c, 1, 1, buf); err != nil {
				return err
			}
			buf[0] = 99 // mutate after send; receiver must see 1
			return nil
		}
		data, err := Recv[int](c, 0, 1)
		if err != nil {
			return err
		}
		if data[0] != 1 {
			return fmt.Errorf("send did not copy: got %v", data)
		}
		return nil
	})
}

func TestCommBasics(t *testing.T) {
	world(t, 2, 3, func(c *Comm) error {
		if c.Size() != 6 {
			return fmt.Errorf("Size = %d", c.Size())
		}
		if c.ID() != WorldID {
			return fmt.Errorf("ID = %d", c.ID())
		}
		if c.ProcOf(c.Rank()) != c.Proc().ID() {
			return fmt.Errorf("ProcOf(self) mismatch")
		}
		if got := len(c.Procs()); got != 6 {
			return fmt.Errorf("Procs len = %d", got)
		}
		if c.Revoked() {
			return fmt.Errorf("fresh comm revoked")
		}
		if got := c.Proc().KnownFailed(); len(got) != 0 {
			return fmt.Errorf("fresh comm known failed = %v", got)
		}
		return nil
	})
}

func TestWorldRequiresMembership(t *testing.T) {
	c := simnet.New(simnet.Config{
		Nodes: 1, ProcsPerNode: 2,
		IntraNodeLatency: 1e-6, InterNodeLatency: 3e-6,
		IntraNodeBandwidth: 1e9, InterNodeBandwidth: 1e9,
	})
	p := Attach(c.Endpoint(0))
	if _, err := World(p, []simnet.ProcID{1}); err == nil {
		t.Fatal("World without self should fail")
	}
}
