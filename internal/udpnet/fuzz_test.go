package udpnet_test

// FuzzUDPFrameRoundTrip is the datagram twin of internal/wire's
// FuzzWireRoundTrip: hostile datagrams — truncated, oversized, corrupted,
// concatenated — must never panic the decoder, and every decodable datagram
// must re-encode to a decodable datagram with a stable header. The seeds
// replay the wire fuzz corpus' payload lanes as full datagrams (prefix
// included — the datagram decoder, unlike the stream decoder, owns the
// prefix check) plus datagram-specific hostiles.

import (
	"bytes"
	"testing"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/dsys"
	"repro/internal/fd/omega"
	"repro/internal/rbcast"
	"repro/internal/udpnet"
	"repro/internal/wire"
)

// seedFrames spans the codec's payload lanes, mirroring the seed set of the
// wire fuzz corpus (internal/wire's testFrames).
func seedFrames() []wire.Frame {
	return []wire.Frame{
		{From: 1, To: 2, Kind: "hb.alive", Payload: nil},
		{From: 3, To: 1, Kind: "seq", Payload: 42},
		{From: 3, To: 1, Kind: "neg", Payload: -7},
		{From: 1, To: 2, Kind: "s", Payload: "hello-over-udp"},
		{From: 1, To: 2, Kind: "b", Payload: true},
		{From: 1, To: 2, Kind: "f", Payload: 3.25},
		{From: 1, To: 2, Kind: "i64", Payload: int64(-1 << 40)},
		{From: 1, To: 2, Kind: "u64", Payload: uint64(1) << 60},
		{From: 1, To: 2, Kind: "by", Payload: []byte{0, 1, 2, 255}},
		{From: 1, To: 2, Kind: "pid", Payload: dsys.ProcessID(5)},
		{From: 1, To: 2, Kind: "ring.beat", Payload: []dsys.ProcessID{3, 1, 2}},
		{From: 1, To: 2, Kind: "ring.watch", Payload: dsys.ProcessID(3)},
		{From: 1, To: 2, Kind: "u32s", Payload: []uint32{1, 2, 3}},
		{From: 1, To: 2, Kind: "omega.counters", Payload: []uint64{9, 0, 1 << 50}},
		{From: 2, To: 4, Kind: "omega.leaderbeat", Payload: &omega.BeatPayload{Attachment: []dsys.ProcessID{2}}},
		{From: 1, To: 3, Kind: "cons.p1", Payload: consensus.Msg{Inst: "slot-4", Round: 3, Est: "v-p1", TS: 2}},
		{From: 5, To: 1, Kind: "rb.msg", Payload: rbcast.Wire{Origin: 5, Seq: 17, Payload: consensus.Decide{Inst: "i", Round: 2, Value: "v"}}},
		{From: 5, To: 1, Kind: "core.kick", Payload: core.Kick{Slot: 9, Batch: core.Batch{Cmds: []core.Command{{Origin: 2, Seq: 3, Payload: "cmd"}}}}},
		{From: 3, To: 2, Kind: "core.fetch", Payload: core.Fetch{From: 17, Limit: 256}},
	}
}

func FuzzUDPFrameRoundTrip(f *testing.F) {
	for _, fr := range seedFrames() {
		fr := fr
		dg, err := udpnet.AppendDatagram(nil, &fr)
		if err != nil {
			f.Fatalf("seed %v: %v", fr, err)
		}
		f.Add(dg)
		// One-frame-per-datagram hostiles: two frames glued together, and a
		// frame with its prefix claiming more or less than is there.
		f.Add(append(append([]byte(nil), dg...), dg...))
		f.Add(dg[:len(dg)-1])
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})
	f.Add([]byte{0, 0, 0, 200, 1})

	f.Fuzz(func(t *testing.T, dg []byte) {
		fr, err := udpnet.DecodeDatagram(dg) // must never panic
		if err != nil {
			return
		}
		// The one-frame-per-datagram invariant: any datagram that decodes
		// must stop decoding the moment a byte is appended or removed.
		if _, err := udpnet.DecodeDatagram(append(append([]byte(nil), dg...), 0)); err == nil {
			t.Fatal("datagram with a trailing byte still decoded")
		}
		if len(dg) > 4 {
			if _, err := udpnet.DecodeDatagram(dg[:len(dg)-1]); err == nil {
				t.Fatal("truncated datagram still decoded")
			}
		}
		// A decoded frame re-encodes into a decodable datagram with the same
		// header, and a second round trip yields the same bytes (the same bar
		// FuzzWireRoundTrip sets).
		re, err := udpnet.AppendDatagram(nil, &fr)
		if err != nil {
			t.Fatalf("decoded frame did not re-encode: %v (frame %+v)", err, fr)
		}
		fr2, err := udpnet.DecodeDatagram(re)
		if err != nil {
			t.Fatalf("re-encoded datagram did not decode: %v", err)
		}
		if fr2.From != fr.From || fr2.To != fr.To || fr2.Kind != fr.Kind {
			t.Fatalf("header changed across round trip: %+v vs %+v", fr, fr2)
		}
		re2, err := udpnet.AppendDatagram(nil, &fr2)
		if err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(re, re2) {
			t.Fatalf("re-encoding is not a fixed point:\n%x\n%x", re, re2)
		}
	})
}
