package mpi

import (
	"reflect"
	"testing"

	"repro/internal/transport"
)

// FuzzControlWords feeds arbitrary word vectors to the revoke and join
// decoders, both as the decoded []int64 an in-process transport hands
// over and as the lazy frame view a wire transport delivers. Each input
// decodes to an error or to a value that encodes back to the same words,
// the two forms agree, and the lazy view is released exactly once.
func FuzzControlWords(f *testing.F) {
	// The variety is in testdata/fuzz/FuzzControlWords; these seeds keep
	// the target meaningful without it.
	f.Add(bytesOf([]int64{7}))
	f.Add(bytesOf(joinInfo{commID: 9, procs: []ProcID{0, 2, 5}, failed: []ProcID{1}}.words()))
	f.Fuzz(func(t *testing.T, raw []byte) {
		words := wordsOf(raw)

		id, err := decodeRevoke(words)
		if err == nil && !reflect.DeepEqual([]int64{int64(id)}, words) {
			t.Fatalf("revoke %v decoded to comm %d", words, id)
		}
		lazyID, lazyErr := viaLazyPayload(t, words, decodeRevoke)
		if (err == nil) != (lazyErr == nil) || lazyID != id {
			t.Fatalf("revoke %v: decoded (%d, %v), lazy view (%d, %v)", words, id, err, lazyID, lazyErr)
		}

		ji, err := decodeJoin(words)
		if err == nil {
			if back := ji.words(); !reflect.DeepEqual(back, words) {
				t.Fatalf("join %v decoded to %+v, which encodes to %v", words, ji, back)
			}
			if len(ji.procs) == 0 {
				t.Fatalf("join %v decoded to an empty communicator", words)
			}
		}
		lazyJI, lazyErr := viaLazyPayload(t, words, decodeJoin)
		if (err == nil) != (lazyErr == nil) || !reflect.DeepEqual(lazyJI, ji) {
			t.Fatalf("join %v: decoded (%+v, %v), lazy view (%+v, %v)", words, ji, err, lazyJI, lazyErr)
		}
	})
}

// viaLazyPayload runs decode on words through the lazy-payload form a wire
// transport delivers at or above its zero-copy threshold, and checks the
// frame is released exactly once. The body is placed once 8-byte aligned,
// as a pooled frame buffer holds it, so DecodeWords takes the zero-copy
// view, and once misaligned, so it takes the copy; both must agree.
func viaLazyPayload[T any](t *testing.T, words []int64, decode func([]int64) (T, error)) (T, error) {
	t.Helper()
	var out [2]T
	var errs [2]error
	for i, pad := range []int{6, 7} {
		enc, err := transport.AppendPayload(make([]byte, pad, 16+8*len(words)), words)
		if err != nil {
			t.Fatal(err)
		}
		released := 0
		rp, ok, err := transport.ParseRawPayload(enc[pad:], func() { released++ })
		if !ok || err != nil {
			t.Fatalf("ParseRawPayload of %d words: ok=%v err=%v", len(words), ok, err)
		}
		out[i], errs[i] = transport.DecodeWords(rp, decode)
		if released != 1 {
			t.Fatalf("lazy payload released %d times, want 1", released)
		}
	}
	if (errs[0] == nil) != (errs[1] == nil) || !reflect.DeepEqual(out[0], out[1]) {
		t.Fatalf("%v: aligned view (%v, %v), copy (%v, %v)", words, out[0], errs[0], out[1], errs[1])
	}
	return out[0], errs[0]
}
