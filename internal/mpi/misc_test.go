package mpi

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/simnet"
)

func TestVirtualBcastAndAllgather(t *testing.T) {
	c := newTestCluster(2, 2)
	procs := c.Procs()
	errs := runAllWorld(c, procs, func(comm *Comm) error {
		if err := BcastVirtual(comm, 8<<20, 1); err != nil {
			return err
		}
		all := make([]int64, comm.Size())
		if err := Allgather(comm, []int64{int64(comm.Rank()) * 3}, all); err != nil {
			return err
		}
		for r, v := range all {
			if v != int64(r)*3 {
				return fmt.Errorf("rank %d gathered %v", comm.Rank(), all)
			}
		}
		return nil
	})
	if err := simnet.FirstError(errs); err != nil {
		t.Fatal(err)
	}
	if c.MaxTime() <= 0 {
		t.Fatal("virtual ops should cost time")
	}
}

func TestSubsetDeterministicMembership(t *testing.T) {
	c := newTestCluster(1, 4)
	procs := c.Procs()
	keep := []simnet.ProcID{procs[0], procs[2], procs[3]}
	var mu sync.Mutex
	ids := map[int]uint64{}
	errs := runAllWorld(c, procs, func(comm *Comm) error {
		sub, err := comm.Subset(keep)
		if err != nil {
			return err
		}
		if comm.Rank() == 1 {
			if sub != nil {
				return fmt.Errorf("excluded rank got a comm")
			}
			return nil
		}
		if sub == nil {
			return fmt.Errorf("member rank %d got nil", comm.Rank())
		}
		if sub.Size() != 3 {
			return fmt.Errorf("subset size %d", sub.Size())
		}
		// The subset must be usable.
		data := []float64{1}
		if err := Allreduce(sub, data, OpSum); err != nil {
			return err
		}
		if data[0] != 3 {
			return fmt.Errorf("subset allreduce = %v", data[0])
		}
		mu.Lock()
		ids[comm.Rank()] = sub.ID()
		mu.Unlock()
		return nil
	})
	if err := simnet.FirstError(errs); err != nil {
		t.Fatal(err)
	}
	var first uint64
	for _, id := range ids {
		if first == 0 {
			first = id
		} else if id != first {
			t.Fatalf("subset ids diverge: %v", ids)
		}
	}
}

func TestErrorStringsAndHelpers(t *testing.T) {
	pf := &ProcFailedError{Comm: 0x2a, Rank: 3, Proc: 7}
	if !strings.Contains(pf.Error(), "rank 3") || !strings.Contains(pf.Error(), "proc 7") {
		t.Fatalf("ProcFailedError.Error() = %q", pf.Error())
	}
	rv := &RevokedError{Comm: 0x2a}
	if !strings.Contains(rv.Error(), "revoked") {
		t.Fatalf("RevokedError.Error() = %q", rv.Error())
	}
	if !IsProcFailed(pf) || IsProcFailed(rv) {
		t.Fatal("IsProcFailed misclassifies")
	}
	if !IsRevoked(rv) || IsRevoked(pf) {
		t.Fatal("IsRevoked misclassifies")
	}
	if !IsFault(pf) || !IsFault(rv) || IsFault(fmt.Errorf("x")) {
		t.Fatal("IsFault misclassifies")
	}
}

func TestOpStrings(t *testing.T) {
	cases := map[Op]string{
		OpSum: "sum", OpProd: "prod", OpMax: "max",
		OpMin: "min", OpBAnd: "band", OpBOr: "bor", Op(99): "op(99)",
	}
	for op, want := range cases {
		if op.String() != want {
			t.Fatalf("%v.String() = %q, want %q", int(op), op.String(), want)
		}
	}
}

func TestBitwiseOpsAcrossIntTypes(t *testing.T) {
	if got := bitAnd(int32(-1), int32(0x0F)); got != 0x0F {
		t.Fatalf("bitAnd int32 = %v", got)
	}
	if got := bitOr(uint64(0xF0), uint64(0x0F)); got != 0xFF {
		t.Fatalf("bitOr uint64 = %v", got)
	}
	if got := bitAnd(int64(-1), int64(123)); got != 123 {
		t.Fatalf("bitAnd int64 = %v", got)
	}
	if got := bitOr(uint8(0x80), uint8(1)); got != 0x81 {
		t.Fatalf("bitOr uint8 = %v", got)
	}
	if got := bitAnd(12, 10); got != 8 { // plain int
		t.Fatalf("bitAnd int = %v", got)
	}
	if got := bitOr(uint32(2), uint32(1)); got != 3 {
		t.Fatalf("bitOr uint32 = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("bitwise on float should panic")
		}
	}()
	_ = bitAnd(float32(1), float32(2))
}

func TestProcEndpointAccessor(t *testing.T) {
	c := newTestCluster(1, 1)
	p := Attach(c.Endpoint(0))
	if p.Endpoint().ID() != 0 || p.ID() != 0 {
		t.Fatal("accessors wrong")
	}
}

func TestRawBufReducePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("rawBuf.reduceIn should panic")
		}
	}()
	b := rawBuf[string]{v: []string{"a"}}
	b.reduceIn(0, 1, []string{"b"}, OpSum)
}
