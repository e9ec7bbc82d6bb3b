package transport

import (
	"bytes"
	"testing"
)

// FuzzEndpointRecord feeds arbitrary records straight into the endpoint
// core, no socket in between. The input is a sequence of records, each
// prefixed by a 2-octet big-endian length (a short tail is one last
// record); each goes through DecodeDatagram into the core's receive
// handler. Properties: no panic; Recv returns exactly the payloads of
// the data records that were ahead of the sequence cursor, and
// RxChunks counts them; every record the core emits — probe replies,
// echoed freezes, keepalive probes — decodes again.
func FuzzEndpointRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		var e endpoint
		var emitted [][]byte
		e.init(Config{KeepalivePeriod: 1}, true, func() {
			emitted = e.sq.drainInto(emitted, 0)
		})
		e.linked = true

		// The model cursor: a new epoch restarts it, and only data ahead
		// of it is delivered.
		var want [][]byte
		var epoch uint32
		var gotEpoch bool
		var cursor uint64
		for len(in) > 0 {
			rec := in
			if len(in) >= 2 {
				if n := int(in[0])<<8 | int(in[1]); n <= len(in)-2 {
					rec = in[2 : 2+n]
				}
			}
			in = in[min(len(in), len(rec)+2):]
			h, payload, derr := DecodeDatagram(rec)
			if derr == nil {
				if !gotEpoch || h.Epoch != epoch {
					gotEpoch, epoch, cursor = true, h.Epoch, 0
				}
				if h.Type == TypeData && h.Seq > cursor {
					cursor = h.Seq
					want = append(want, append([]byte(nil), payload...))
				}
			}
			if reply := e.receive(h, payload, derr, 1); reply != nil {
				emitted = append(emitted, append([]byte(nil), reply...))
			}
		}

		got := e.Recv(nil)
		if len(got) != len(want) {
			t.Fatalf("delivered %d chunks, want %d", len(got), len(want))
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("chunk %d: %x, want %x", i, got[i], want[i])
			}
		}
		if st := e.Stats(); st.RxChunks != uint64(len(got)) {
			t.Fatalf("RxChunks = %d, delivered %d", st.RxChunks, len(got))
		}

		// Echo every received freeze and run the keepalive schedule, so
		// the core also queues freeze and probe records.
		freezes := e.Freezes(nil)
		for _, fi := range freezes {
			e.SendFreeze(fi)
		}
		e.keepalive(1)
		e.keepalive(2)

		var echoed []FreezeInfo
		for _, rec := range emitted {
			h, payload, err := DecodeDatagram(rec)
			if err != nil || HeaderLen+h.Len != len(rec) {
				t.Fatalf("emitted record %x: len %d, err %v", rec, h.Len, err)
			}
			switch h.Type {
			case TypeKeepaliveReply:
				if _, _, _, err := DecodeKeepaliveReply(payload); err != nil {
					t.Fatalf("emitted reply %x: %v", rec, err)
				}
			case TypeFreeze:
				inc, tick, wall, reason, err := DecodeFreeze(payload)
				if err != nil {
					t.Fatalf("emitted freeze %x: %v", rec, err)
				}
				echoed = append(echoed, FreezeInfo{Incident: inc, Reason: reason, Tick: tick, WallNs: wall})
			}
		}
		if len(echoed) != len(freezes) {
			t.Fatalf("echoed %d freezes, received %d", len(echoed), len(freezes))
		}
		for i := range echoed {
			if echoed[i] != freezes[i] {
				t.Fatalf("freeze %d round trip: %+v, want %+v", i, echoed[i], freezes[i])
			}
		}
	})
}
