package autopilot

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// FuzzParseSchedule feeds arbitrary -scale-policy values to
// ParseSchedule. A value parses to an error or to one step per
// comma-separated entry, sorted by step, with no zero delta, and the
// parsed schedule printed back in the flag's syntax parses to itself.
func FuzzParseSchedule(f *testing.F) {
	// The variety is in testdata/fuzz/FuzzParseSchedule; this one seed
	// keeps the target meaningful without it.
	f.Add("10:+2,200:-1")
	f.Fuzz(func(t *testing.T, s string) {
		steps, err := ParseSchedule(s)
		if err != nil {
			if steps != nil {
				t.Fatalf("ParseSchedule(%q) returned %v with error %v", s, steps, err)
			}
			return
		}
		if strings.TrimSpace(s) == "" {
			if len(steps) != 0 {
				t.Fatalf("ParseSchedule(%q) = %v, want empty", s, steps)
			}
			return
		}
		if want := strings.Count(s, ",") + 1; len(steps) != want {
			t.Fatalf("ParseSchedule(%q) = %d steps, want %d", s, len(steps), want)
		}
		entries := make([]string, len(steps))
		for i, st := range steps {
			if st.Delta == 0 {
				t.Fatalf("ParseSchedule(%q): zero delta at step %d", s, st.Step)
			}
			if i > 0 && steps[i-1].Step > st.Step {
				t.Fatalf("ParseSchedule(%q) = %v, not sorted by step", s, steps)
			}
			entries[i] = fmt.Sprintf("%d:%+d", st.Step, st.Delta)
		}
		back, err := ParseSchedule(strings.Join(entries, ","))
		if err != nil || !reflect.DeepEqual(back, steps) {
			t.Fatalf("ParseSchedule(%q) = %v, which prints back as %q and parses to %v (%v)",
				s, steps, strings.Join(entries, ","), back, err)
		}
	})
}

// FuzzStateWords feeds arbitrary word vectors to the state-transfer
// offer and ack decoders. Each input decodes to an error or to a value
// that encodes back to the same words, and an accepted offer never
// announces a chunk size the sender could not use.
func FuzzStateWords(f *testing.F) {
	// The variety is in testdata/fuzz/FuzzStateWords; these seeds keep
	// the target meaningful without it.
	f.Add(wordBytes(stateOffer{total: 4 << 20, chunkBytes: defaultChunkBytes, crc: 0xdeadbeef, step: 12}.words()))
	f.Add(wordBytes(stateAck{ok: true, crc: 0xdeadbeef}.words()))
	f.Fuzz(func(t *testing.T, raw []byte) {
		words := make([]int64, len(raw)/8)
		for i := range words {
			words[i] = int64(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		if o, err := decodeOffer(words); err == nil {
			if o.chunkBytes <= 0 || o.total < 0 {
				t.Fatalf("offer %v decoded to %+v", words, o)
			}
			if back := o.words(); !reflect.DeepEqual(back, words) {
				t.Fatalf("offer %v decoded to %+v, which encodes to %v", words, o, back)
			}
		}
		if a, err := decodeAck(words); err == nil {
			if back := a.words(); !reflect.DeepEqual(back, words) {
				t.Fatalf("ack %v decoded to %+v, which encodes to %v", words, a, back)
			}
		}
	})
}

func wordBytes(w []int64) []byte {
	raw := make([]byte, 8*len(w))
	for i, x := range w {
		binary.LittleEndian.PutUint64(raw[8*i:], uint64(x))
	}
	return raw
}
