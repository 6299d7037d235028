package wire

import (
	"testing"

	"repro/internal/consensus"
	"repro/internal/fd/omega"
	"repro/internal/rbcast"
)

// benchFrames are the payload mix of a live detector+consensus workload: the
// n²−n heartbeat beats dominate, with consensus and rbcast envelopes mixed in.
func benchFrames() []Frame {
	return []Frame{
		{From: 1, To: 2, Kind: "omega.leaderbeat", Payload: &omega.BeatPayload{}},
		{From: 2, To: 1, Kind: "hb.alive", Payload: nil},
		{From: 1, To: 3, Kind: "cons.p1", Payload: consensus.Msg{Inst: "slot-12", Round: 2, Est: "value-a", TS: 1}},
		{From: 3, To: 1, Kind: "rb.msg", Payload: rbcast.Wire{Origin: 3, Seq: 40, Payload: consensus.Decide{Inst: "slot-12", Round: 2, Value: "value-a"}}},
	}
}

// BenchmarkWireCodec measures the wire codec over that frame mix.
func BenchmarkWireCodec(b *testing.B) {
	frames := benchFrames()

	b.Run("encode/wire", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		var err error
		for i := 0; i < b.N; i++ {
			buf, err = AppendFrame(buf[:0], &frames[i%len(frames)])
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("roundtrip/wire", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		var err error
		for i := 0; i < b.N; i++ {
			buf, err = AppendFrame(buf[:0], &frames[i%len(frames)])
			if err != nil {
				b.Fatal(err)
			}
			if _, err = DecodeFrame(buf[4:]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
