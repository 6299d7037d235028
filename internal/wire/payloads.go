package wire

// Hand-rolled codecs for the protocol payload structs. These are the
// payloads every detector/consensus workload sends per period — the CT-style
// ◇P heartbeat alone is n²−n of them — so each gets a field-by-field codec.
// The registration order below fixes the wire ids; it is append-only (add new
// types at the end).
//
// Each codec must keep enc and dec exactly mirrored; TestPayloadRoundTrips
// and FuzzWireRoundTrip enforce it.

import (
	"repro/internal/consensus"
	"repro/internal/consensus/mrc"
	"repro/internal/core"
	"repro/internal/fd/omega"
	"repro/internal/rbcast"
)

func init() {
	// Ω leader heartbeat (sent as a pointer by omega's beacon task).
	Register(&omega.BeatPayload{},
		func(e *Encoder, v any) {
			e.Value(v.(*omega.BeatPayload).Attachment)
		},
		func(d *Decoder) any {
			return &omega.BeatPayload{Attachment: d.Value()}
		})
	// Consensus round envelope.
	Register(consensus.Msg{},
		func(e *Encoder, v any) {
			m := v.(consensus.Msg)
			e.String(m.Inst)
			e.Varint(int64(m.Round))
			e.Value(m.Est)
			e.Varint(int64(m.TS))
			e.Bool(m.Null)
		},
		func(d *Decoder) any {
			return consensus.Msg{
				Inst:  d.String(),
				Round: d.Int(),
				Est:   d.Value(),
				TS:    d.Int(),
				Null:  d.Bool(),
			}
		})
	// Decision dissemination (rides inside rbcast.Wire).
	Register(consensus.Decide{},
		func(e *Encoder, v any) {
			m := v.(consensus.Decide)
			e.String(m.Inst)
			e.Varint(int64(m.Round))
			e.Value(m.Value)
		},
		func(d *Decoder) any {
			return consensus.Decide{Inst: d.String(), Round: d.Int(), Value: d.Value()}
		})
	// Reliable-broadcast envelope.
	Register(rbcast.Wire{},
		func(e *Encoder, v any) {
			m := v.(rbcast.Wire)
			e.Varint(int64(m.Origin))
			e.Varint(m.Inc)
			e.Varint(int64(m.Seq))
			e.Value(m.Payload)
		},
		func(d *Decoder) any {
			return rbcast.Wire{Origin: d.PID(), Inc: d.Varint(), Seq: d.Int(), Payload: d.Value()}
		})
	// MR consensus phase-1 leader announcement (rides in consensus.Msg.Est).
	Register(mrc.LdrInfo{},
		func(e *Encoder, v any) {
			m := v.(mrc.LdrInfo)
			e.Varint(int64(m.Leader))
			e.Value(m.Est)
		},
		func(d *Decoder) any {
			return mrc.LdrInfo{Leader: d.PID(), Est: d.Value()}
		})
	// Replicated-log command.
	Register(core.Command{},
		func(e *Encoder, v any) { encCommand(e, v.(core.Command)) },
		func(d *Decoder) any { return decCommand(d) })
	// Slot announcement (embeds the announced Batch; encoded inline, no
	// nested tag).
	Register(core.Kick{},
		func(e *Encoder, v any) {
			m := v.(core.Kick)
			e.Varint(int64(m.Slot))
			encBatch(e, m.Batch)
		},
		func(d *Decoder) any {
			k := core.Kick{Slot: d.Int()}
			k.Batch, _ = decBatch(d)
			return k
		})
	// State-transfer request (decided-range fetch).
	Register(core.Fetch{},
		func(e *Encoder, v any) {
			m := v.(core.Fetch)
			e.Varint(int64(m.From))
			e.Varint(int64(m.Limit))
		},
		func(d *Decoder) any {
			return core.Fetch{From: d.Int(), Limit: d.Int()}
		})
	// State-transfer chunk: a run of decided slots plus the donor's
	// frontier. Entries are encoded inline (no nested tags); the count is
	// bounded by sliceCap so a hostile frame cannot force a huge
	// allocation.
	Register(core.State{},
		func(e *Encoder, v any) {
			m := v.(core.State)
			e.Varint(int64(m.From))
			e.Varint(int64(m.High))
			e.Uvarint(uint64(len(m.Entries)))
			for _, en := range m.Entries {
				e.Varint(int64(en.Slot))
				e.Varint(int64(en.Round))
				encBatch(e, en.Batch)
			}
		},
		func(d *Decoder) any {
			st := core.State{From: d.Int(), High: d.Int()}
			n, ok := d.sliceCap(d.Uvarint())
			if !ok {
				return st
			}
			for i := 0; i < n && d.Err() == nil; i++ {
				en := core.StateEntry{Slot: d.Int(), Round: d.Int()}
				en.Batch, _ = decBatch(d)
				st.Entries = append(st.Entries, en)
			}
			return st
		})
	// Command batch: the value a log slot decides — it rides inside
	// consensus.Msg.Est / consensus.Decide.Value on every instance message,
	// which is why decBatch memoizes it (memo.go). Appended after the PR-7
	// types to keep earlier wire ids stable.
	Register(core.Batch{},
		func(e *Encoder, v any) { encBatch(e, v.(core.Batch)) },
		decBatchValue)
}

func encCommand(e *Encoder, c core.Command) {
	e.Varint(int64(c.Origin))
	e.Varint(c.Seq)
	e.Value(c.Payload)
}

func decCommand(d *Decoder) core.Command {
	return core.Command{Origin: d.PID(), Seq: d.Varint(), Payload: d.Value()}
}

// encBatch encodes a slot's command batch inline (no nested tags); decBatch
// (memo.go) mirrors it.
func encBatch(e *Encoder, b core.Batch) {
	e.Uvarint(uint64(len(b.Cmds)))
	for _, c := range b.Cmds {
		encCommand(e, c)
	}
}
