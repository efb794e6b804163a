package gossip

import (
	"bytes"
	"testing"

	"repro/internal/transport"
)

// FuzzGossipPacket feeds arbitrary datagrams through Decode and, when
// they decode, through HandlePacket of a small bootstrapped node, then
// lets a protocol period run. A datagram decodes to an error or to a
// packet whose encoding survives a Decode/Encode round trip. Handling it never
// panics; the member table grows by at most the members the packet's
// updates name, the probe rotation never outgrows the table, an answer
// is at most one envelope, and no envelope piggybacks more than
// MaxPiggyback updates.
func FuzzGossipPacket(f *testing.F) {
	// The variety is in testdata/fuzz/FuzzGossipPacket; this one seed
	// keeps the target meaningful without it.
	f.Add([]byte(`{"k":0,"f":2,"q":7,"u":[{"p":4,"a":"a4","i":1,"s":0}]}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		pkt, err := Decode(raw)
		if err != nil {
			return
		}
		enc, err := Encode(pkt)
		if err != nil {
			t.Fatalf("decoded %q to %+v, which does not encode: %v", raw, pkt, err)
		}
		back, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-encoded %q as %q, which does not decode: %v", raw, enc, err)
		}
		if again, err := Encode(back); err != nil || !bytes.Equal(again, enc) {
			t.Fatalf("re-encoded %q as %q, which round-trips to %q (%v)", raw, enc, again, err)
		}

		const self = 1
		cfg := Config{Seed: 1}
		n := NewNode(self, "a1", cfg)
		n.Bootstrap(map[transport.ProcID]string{1: "a1", 2: "a2", 3: "a3"}, 0)
		named := map[transport.ProcID]bool{}
		for _, up := range pkt.Updates {
			if up.Proc != self {
				named[up.Proc] = true
			}
		}
		before := len(n.tbl.members)
		check := func(what string, out []Envelope, most int) {
			t.Helper()
			if len(out) > most {
				t.Fatalf("%s: %d envelopes, want at most %d", what, len(out), most)
			}
			for _, env := range out {
				if len(env.Pkt.Updates) > cfg.withDefaults().MaxPiggyback {
					t.Fatalf("%s: %d piggybacked updates", what, len(env.Pkt.Updates))
				}
			}
			if got := len(n.tbl.members); got > before+len(named) {
				t.Fatalf("%s: member table grew from %d to %d on a packet naming %d members", what, before, got, len(named))
			}
			if len(n.order) > len(n.tbl.members) {
				t.Fatalf("%s: probe rotation of %d for %d members", what, len(n.order), len(n.tbl.members))
			}
		}
		check("first delivery", n.HandlePacket(pkt, 0.1), 1)
		check("redelivery", n.HandlePacket(pkt, 0.2), 1)
		for now := 0.25; now < 2; now += 0.05 {
			// A stalled probe's IndirectK ping-reqs and the next probe.
			check("tick", n.Tick(now), cfg.withDefaults().IndirectK+1)
		}
	})
}
