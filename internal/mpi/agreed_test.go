package mpi

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/transport/chaos"
	"repro/internal/transport/tcpnet"
	"repro/internal/vtime"
)

// rawTag is the raw wire codec's type tag for v's elements.
func rawTag(v any) int {
	tag, _, _, _ := transport.RawSendView(v)
	return int(tag)
}

// packRoundTrip checks that a carry packs v into payload words that a
// decision stores back as v, and that the last word's padding stays zero.
func packRoundTrip[E Number](t *testing.T, v []E) {
	t.Helper()
	elem, count := newCarry(v, OpSum).shape()
	w := make([]int64, packedWords(elem, count))
	newCarry(v, OpSum).reduce(w, nil)
	back := make([]E, len(v))
	if !newCarry(back, OpSum).store(&agreeMsg{elem: elem, count: count, data: w}) || !slices.Equal(back, v) {
		t.Fatalf("%T: packed %v, stored %v", v, v, back)
	}
	if pad := len(w)*8 - len(wireBytes(v)); pad > 0 && uint64(w[len(w)-1])>>(64-8*pad) != 0 {
		t.Fatalf("%T: last word %#x has non-zero padding", v, w[len(w)-1])
	}
}

// TestAgreedPackRoundTrip: every element type the agreement carries packs
// into words and back, at lengths that leave the last word part padding.
func TestAgreedPackRoundTrip(t *testing.T) {
	for n := 0; n <= 9; n++ {
		f32, f64 := make([]float32, n), make([]float64, n)
		i32, i64 := make([]int32, n), make([]int64, n)
		u8, u32, u64 := make([]uint8, n), make([]uint32, n), make([]uint64, n)
		for i := 0; i < n; i++ {
			f32[i], f64[i] = -1.5*float32(i)-0.25, 1e300/float64(i+1)
			i32[i], i64[i] = -int32(i)*1_000_003, -int64(i)<<40
			u8[i], u32[i], u64[i] = uint8(250+i), ^uint32(i), ^uint64(i)
		}
		packRoundTrip(t, f32)
		packRoundTrip(t, f64)
		packRoundTrip(t, i32)
		packRoundTrip(t, i64)
		packRoundTrip(t, u8)
		packRoundTrip(t, u32)
		packRoundTrip(t, u64)
	}
}

// TestDecodeAgreePayload: the decoder takes a payload section that fits
// its body and refuses one that claims more than the body holds, names no
// known element type, or rides a query.
func TestDecodeAgreePayload(t *testing.T) {
	f32, f64 := int64(rawTag([]float32(nil))), int64(rawTag([]float64(nil)))
	up := agreeMsg{kind: agreeUp, comm: WorldID, seq: 1, flags: 1, elem: int(f32), count: 3, data: []int64{1, 2}, failed: []ProcID{4}}
	m, err := decodeAgreeMsg(up.encode())
	if err != nil || m.elem != int(f32) || m.count != 3 || len(m.data) != 2 || !slices.Equal(m.failed, up.failed) {
		t.Fatalf("decoded %+v, %v; want %+v", m, err, up)
	}
	header := func(kind, elem, count int64) []int64 { return []int64{kind, 1, 1, 0, 1, 0, elem, count} }
	for name, w := range map[string][]int64{
		"count beyond the body": append(header(agreeUp, f64, 3), 1, 2),
		"unknown element tag":   append(header(agreeUp, 99, 1), 1),
		"tag beyond a byte":     append(header(agreeUp, f64+256, 1), 1),
		"payload on a query":    append(header(agreeQuery, f32, 2), 1),
		"untyped elements":      append(header(agreeUp, 0, 1), 1),
	} {
		if m, err := decodeAgreeMsg(w); err == nil {
			t.Errorf("%s: decoded %v to %+v, want an error", name, w, m)
		}
	}
}

// runAgreed runs body at every rank of a flat simulated world of n.
func runAgreed(t *testing.T, n int, wrap func(transport.Endpoint) transport.Endpoint, body func(rank int, c *Comm) error) {
	t.Helper()
	c := flatCluster(n)
	procs := c.Procs()
	errs := simnet.RunAll(c, procs, func(rank int, ep *simnet.Endpoint) error {
		var tep transport.Endpoint = ep
		if wrap != nil {
			tep = wrap(ep)
		}
		comm, err := World(Attach(tep), procs)
		if err != nil {
			return err
		}
		return body(rank, comm)
	})
	if err := simnet.FirstError(errs); err != nil {
		t.Fatal(err)
	}
}

// agreedSum runs one AllreduceAgreed of rank+1 in each of elems elements
// and checks the result is the world's sum.
func agreedSum[E Number](rank int, c *Comm, elems int) error {
	data := make([]E, elems)
	for i := range data {
		data[i] = E(rank + 1)
	}
	ok, err := AllreduceAgreed(c, data, OpSum)
	if err != nil {
		return err
	}
	n := c.Size()
	for i, v := range data {
		if !ok || v != E(n*(n+1)/2) {
			return fmt.Errorf("rank %d %T: ok=%v element %d = %v, want %d", rank, data, ok, i, v, n*(n+1)/2)
		}
	}
	return nil
}

// TestAgreedAllreduceEveryElementType: the agreed allreduce sums each
// element type it carries, in a world deep enough (13) that interior
// members forward partial sums.
func TestAgreedAllreduceEveryElementType(t *testing.T) {
	runAgreed(t, 13, nil, func(rank int, c *Comm) error {
		for _, err := range []error{
			agreedSum[float32](rank, c, 7), agreedSum[float64](rank, c, 5),
			agreedSum[int32](rank, c, 3), agreedSum[int64](rank, c, 1),
			agreedSum[uint8](rank, c, 9), agreedSum[uint32](rank, c, 2),
			agreedSum[uint64](rank, c, 0),
		} {
			if err != nil {
				return err
			}
		}
		return nil
	})
}

// TestAgreedAllreduceDuplicateIsNotSummedTwice: every agreement message is
// delivered twice, and every agreed allreduce still returns exactly the
// world's sum — a contribution replaces its sender's earlier one rather
// than adding to it.
func TestAgreedAllreduceDuplicateIsNotSummedTwice(t *testing.T) {
	const n, rounds = 8, 10
	dup := chaos.DataRule("dup-every-agreement-message", chaos.OpDup)
	dup.Tag = transport.CtlAgree
	eng := chaos.New(chaos.Scenario{Name: "agreed-dup", Seed: 1, Rules: []chaos.Rule{dup}})
	runAgreed(t, n, func(ep transport.Endpoint) transport.Endpoint { return eng.Wrap(ep) }, func(rank int, c *Comm) error {
		for i := 0; i < rounds; i++ {
			if err := agreedSum[float64](rank, c, 4); err != nil {
				return fmt.Errorf("round %d: %w", i, err)
			}
		}
		return nil
	})
	dups := 0
	for _, ev := range eng.Events() {
		if ev.Op == chaos.OpDup && ev.Tag == transport.CtlAgree {
			dups++
		}
	}
	if want := rounds * 2 * (n - 1); dups < want {
		t.Fatalf("%d agreement messages duplicated, want every one of at least %d", dups, want)
	}
}

// TestAgreedAllreduceOnRevokedCommFails: a member that knows the
// communicator revoked vetoes the result, so nobody gets one and every
// caller's data is untouched.
func TestAgreedAllreduceOnRevokedCommFails(t *testing.T) {
	runAgreed(t, 5, nil, func(rank int, c *Comm) error {
		if rank == 3 {
			c.p.revoked[c.id] = true // revoked here only: the veto must travel
		}
		data := []int64{int64(rank + 1)}
		ok, err := AllreduceAgreed(c, data, OpSum)
		if err != nil {
			return err
		}
		if ok || data[0] != int64(rank+1) {
			return fmt.Errorf("rank %d: ok=%v data %v on a revoked communicator, want a failure and %d", rank, ok, data, rank+1)
		}
		return nil
	})
}

// TestAgreedPath: the agreed allreduce takes exactly the calls
// AllreduceOpts would run as the static latency tree, with a lossless
// codec and an element type that has a raw wire form.
func TestAgreedPath(t *testing.T) {
	runAgreed(t, 4, nil, func(rank int, c *Comm) error {
		auto, fp16 := AllreduceOptions{}, AllreduceOptions{Codec: CodecFP16}
		type named float64
		for _, tc := range []struct {
			name string
			got  bool
			want bool
		}{
			{"8 KiB float64", AgreedPath(c, make([]float64, 1024), auto), true},
			{"64 KiB float32", AgreedPath(c, make([]float32, 16<<10), auto), true},
			{"64 KiB + 4 B float32", AgreedPath(c, make([]float32, 16<<10+1), auto), false},
			{"empty", AgreedPath(c, []float64{}, auto), true},
			{"explicit ring", AgreedPath(c, make([]float64, 8), AllreduceOptions{Algo: AlgoRing}), false},
			{"fp16 float32", AgreedPath(c, make([]float32, 8), fp16), false},
			{"fp16 int32 (travels lossless)", AgreedPath(c, make([]int32, 8), fp16), true},
			{"int", AgreedPath(c, make([]int, 8), auto), false},
			{"named float64", AgreedPath(c, make([]named, 8), auto), false},
		} {
			if tc.got != tc.want {
				return fmt.Errorf("%s: AgreedPath = %v, want %v", tc.name, tc.got, tc.want)
			}
		}
		if _, err := AllreduceAgreed(c, make([]int, 1), OpSum); err == nil {
			return fmt.Errorf("AllreduceAgreed of []int: no error")
		}
		return nil
	})
}

// TestAgreedAllreduceLeavesNothingBehindOnTCP is TestLoopbackMailboxStaysFlat
// for the agreed allreduce alone: a world of 4 on the shipped tcpnet
// defaults runs 3 000 agreed allreduces of 1 Ki float64 — the benchmark's
// steady_8k step — and at steps 1 000, 2 000 and 3 000, with every worker
// held at a barrier so nothing is in flight, every mailbox is empty and no
// agreement message is set aside. Goroutines and pooled frame buffers are
// back at their baseline after teardown.
func TestAgreedAllreduceLeavesNothingBehindOnTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	const (
		world = 4
		steps = 3000
		every = 1000
		elems = 1 << 10
	)
	goroutines0 := runtime.NumGoroutine()
	bufs0 := tcpnet.OutstandingFrameBufs()

	procs := make([]ProcID, world)
	addrs := map[ProcID]string{}
	eps := make([]*tcpnet.Endpoint, world)
	for r := range eps {
		ep, err := tcpnet.Listen("127.0.0.1:0", tcpnet.Config{})
		if err != nil {
			t.Fatal(err)
		}
		eps[r], procs[r], addrs[ProcID(r)] = ep, ProcID(r), ep.Addr()
	}
	for r, ep := range eps {
		ep.Start(ProcID(r), addrs)
	}

	cp := chaos.NewCheckpoint(world)
	errs := make(chan error, world)
	for r := range eps {
		go func(rank int, ep *tcpnet.Endpoint) {
			errs <- func() (err error) {
				defer func() {
					if err != nil {
						cp.Abort()
					}
				}()
				p := Attach(ep)
				comm, err := World(p, procs)
				if err != nil {
					return err
				}
				for step := 1; step <= steps; step++ {
					if err := agreedSum[float64](rank, comm, elems); err != nil {
						return fmt.Errorf("step %d: %w", step, err)
					}
					if step%every != 0 {
						continue
					}
					if !cp.Wait() { // everyone is out of this step: nothing is in flight
						return nil
					}
					if n, b := ep.QueueLen(), p.AgreeBacklog(); n != 0 || b != 0 {
						return fmt.Errorf("rank %d after step %d: %d messages in the mailbox, %d agreement messages set aside; want 0 and 0", rank, step, n, b)
					}
					if !cp.Wait() { // nobody starts the next step before every mailbox is read
						return nil
					}
				}
				return nil
			}()
		}(r, eps[r])
	}
	for i := 0; i < world; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Error(err)
			}
		case <-time.After(120 * time.Second):
			t.Fatalf("only %d/%d workers finished", i, world)
		}
	}
	for _, ep := range eps {
		ep.Close()
	}

	if s := chaos.Leaked(5 * time.Second); s != "" {
		t.Errorf("goroutines leaked:\n%s", s)
	}
	vtime.WaitUntil(5*time.Second, func() bool {
		return runtime.NumGoroutine() <= goroutines0 && tcpnet.OutstandingFrameBufs() == bufs0
	})
	if n := runtime.NumGoroutine(); n > goroutines0 {
		t.Errorf("%d goroutines after teardown, %d before the world started", n, goroutines0)
	}
	if n := tcpnet.OutstandingFrameBufs(); n != bufs0 {
		t.Errorf("%d pooled frame buffers outstanding after teardown, %d before", n, bufs0)
	}
}
