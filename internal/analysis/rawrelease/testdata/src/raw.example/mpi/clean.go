// Clean patterns: the checkout protocol done right.
package mpi

import "raw.example/transport"

// reduceIn is the fused decompress-and-reduce shape from the real
// compBuf: view, consume, Release on the viewing path; the lossless
// fall-through hands the payload (via its interface alias) to a helper
// that releases on the caller's behalf.
func reduceIn(dst []float32, pay any) {
	switch p := pay.(type) {
	case *transport.RawPayload:
		if v, ok := p.AsF16(); ok {
			f16Reduce(dst, v)
			p.Release()
			return
		}
		fallback(dst, pay) // ownership transfer through the alias
	default:
		fallback(dst, pay)
	}
}

// setIn is the lazy-view shape from the real numBuf: the payload is
// handed to a helper before any direct view, so the helper owns it.
func setIn(dst []float32, pay any) {
	if rp, ok := pay.(*transport.RawPayload); ok {
		copyLazy(dst, rp)
		return
	}
	fallback(dst, pay)
}

// branchClean releases on every path out, with a view live across an
// intermediate branch.
func branchClean(p *transport.RawPayload, cond bool) {
	v, ok := p.AsF16()
	if !ok {
		p.Release()
		return
	}
	if cond {
		f16Reduce(nil, v)
	}
	p.Release()
}

// deferClean satisfies the obligation with a deferred Release.
func deferClean(p *transport.RawPayload) float32 {
	defer p.Release()
	v, ok := RawView32(p)
	if !ok {
		return 0
	}
	return v[0]
}

// handOff transfers the payload to a channel owner; the outstanding
// view travels with it.
func handOff(ch chan *transport.RawPayload, p *transport.RawPayload) {
	v, _ := p.AsF16()
	_ = v
	ch <- p
}

// RawView32 re-exports the generic view; returning the view transfers
// it to the caller, who still holds the payload.
func RawView32(p *transport.RawPayload) ([]float32, bool) {
	return transport.RawPayloadView[float32](p)
}

func f16Reduce(dst []float32, v transport.F16) {}
func fallback(dst []float32, pay any)          {}
func copyLazy(dst []float32, rp *transport.RawPayload) {
	v, ok := transport.RawPayloadView[float32](rp)
	if !ok {
		rp.Release()
		return
	}
	copy(dst, v)
	rp.Release()
}
