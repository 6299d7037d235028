package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/consensus"
	"repro/internal/consensus/mrc"
	"repro/internal/core"
	"repro/internal/dsys"
	"repro/internal/fd/omega"
	"repro/internal/rbcast"
)

// roundTrip encodes f and decodes it back through the full frame path.
func roundTrip(t *testing.T, f Frame) Frame {
	t.Helper()
	b, err := AppendFrame(nil, &f)
	if err != nil {
		t.Fatalf("AppendFrame(%+v): %v", f, err)
	}
	got, buf, err := ReadFrame(bytes.NewReader(b), nil)
	if err != nil {
		t.Fatalf("ReadFrame(%+v): %v", f, err)
	}
	_ = buf
	return got
}

// testFrames covers every lane: nil/primitive payloads, the small slice
// types, and all registered payload structs including nested anys.
func testFrames() []Frame {
	return []Frame{
		{From: 1, To: 2, Kind: "hb.alive", Payload: nil},
		{From: 3, To: 1, Kind: "seq", Payload: 42},
		{From: 3, To: 1, Kind: "neg", Payload: -7},
		{From: 1, To: 2, Kind: "s", Payload: "hello-over-tcp"},
		{From: 1, To: 2, Kind: "b", Payload: true},
		{From: 1, To: 2, Kind: "f", Payload: 3.25},
		{From: 1, To: 2, Kind: "i64", Payload: int64(-1 << 40)},
		{From: 1, To: 2, Kind: "u", Payload: uint(9)},
		{From: 1, To: 2, Kind: "u32", Payload: uint32(7)},
		{From: 1, To: 2, Kind: "u64", Payload: uint64(1) << 60},
		{From: 1, To: 2, Kind: "by", Payload: []byte{0, 1, 2, 255}},
		{From: 1, To: 2, Kind: "pid", Payload: dsys.ProcessID(5)},
		{From: 1, To: 2, Kind: "dur", Payload: 1500 * time.Millisecond},
		{From: 1, To: 2, Kind: "ring.beat", Payload: []dsys.ProcessID{3, 1, 2}},
		{From: 1, To: 2, Kind: "u32s", Payload: []uint32{1, 2, 3}},
		{From: 1, To: 2, Kind: "omega.counters", Payload: []uint64{9, 0, 1 << 50}},
		{From: 2, To: 4, Kind: "omega.leaderbeat", Payload: &omega.BeatPayload{}},
		{From: 2, To: 4, Kind: "omega.leaderbeat", Payload: &omega.BeatPayload{Attachment: []dsys.ProcessID{2}}},
		{From: 1, To: 3, Kind: "cons.p1", Payload: consensus.Msg{Inst: "slot-4", Round: 3, Est: "v-p1", TS: 2}},
		{From: 1, To: 3, Kind: "cons.p2", Payload: consensus.Msg{Inst: "x", Round: 1, Null: true}},
		{From: 1, To: 3, Kind: "cons.p1", Payload: consensus.Msg{Inst: "x", Round: 1, Est: mrc.LdrInfo{Leader: 2, Est: 11}}},
		{From: 5, To: 1, Kind: "rb.msg", Payload: rbcast.Wire{Origin: 5, Seq: 17, Payload: consensus.Decide{Inst: "i", Round: 2, Value: "v"}}},
		{From: 5, To: 1, Kind: "core.kick", Payload: core.Kick{Slot: 9, Batch: core.Batch{Cmds: []core.Command{{Origin: 2, Seq: 3, Payload: "cmd"}}}}},
		{From: 5, To: 1, Kind: "core.kick", Payload: core.Kick{Slot: 12, Batch: core.Batch{Cmds: []core.Command{
			{Origin: 2, Seq: 4, Payload: "m1"},
			{Origin: 2, Seq: 5, Payload: []byte{9, 8}},
			{Origin: 2, Seq: 6, Payload: nil},
		}}}},
		{From: 5, To: 1, Kind: "cmd", Payload: core.Command{Origin: 1, Seq: 1, Payload: nil}},
		{From: 5, To: 1, Kind: "cmd", Payload: core.Command{Origin: 3, Seq: 1754521953131866112, Payload: "wide-seq"}},
		{From: 4, To: 1, Kind: "batch", Payload: core.Batch{}}, // empty no-op slot value
		{From: 4, To: 1, Kind: "batch", Payload: core.Batch{Cmds: []core.Command{
			{Origin: 1, Seq: 7, Payload: "x"},
			{Origin: 4, Seq: 1 << 41, Payload: "y"},
		}}},
		{From: 5, To: 1, Kind: "rb.msg", Payload: rbcast.Wire{Origin: 2, Inc: 3, Seq: 9, Payload: consensus.Decide{
			Inst: "log/7", Round: 1, Value: core.Batch{Cmds: []core.Command{{Origin: 2, Seq: 8, Payload: "in-decide"}}},
		}}},
		{From: 3, To: 2, Kind: "core.fetch", Payload: core.Fetch{From: 17, Limit: 256}},
		{From: 2, To: 3, Kind: "core.state", Payload: core.State{From: 17, High: 19}},
		{From: 2, To: 3, Kind: "core.state", Payload: core.State{From: 17, High: 19, Entries: []core.StateEntry{
			{Slot: 17, Round: 1, Batch: core.Batch{Cmds: []core.Command{{Origin: 1, Seq: 4, Payload: "a"}}}},
			{Slot: 18, Round: 2, Batch: core.Batch{Cmds: []core.Command{
				{Origin: 2, Seq: 1 << 40, Payload: "b"},
				{Origin: 3, Seq: 2, Payload: "c"},
			}}},
			{Slot: 19, Round: 1, Batch: core.Batch{}},
		}}},
	}
}

func TestPayloadRoundTrips(t *testing.T) {
	for _, f := range testFrames() {
		got := roundTrip(t, f)
		if !reflect.DeepEqual(got, f) {
			t.Errorf("round trip mangled frame:\n got  %#v\n want %#v", got, f)
		}
	}
}

// TestBeatFrameCompact: a beat frame must be tiny — 4B length + header + tag
// bytes.
func TestBeatFrameCompact(t *testing.T) {
	b, err := AppendFrame(nil, &Frame{From: 1, To: 2, Kind: "omega.leaderbeat", Payload: &omega.BeatPayload{}})
	if err != nil {
		t.Fatal(err)
	}
	if len(b) > 32 {
		t.Errorf("beat frame is %d bytes, want compact (<= 32)", len(b))
	}
}

// TestUnregisteredPayload: a payload type in no lane — top-level or nested
// inside a registered struct — is ErrUnregistered naming the type, and dst
// comes back unextended.
func TestUnregisteredPayload(t *testing.T) {
	dst := []byte("prefix")
	for _, payload := range []any{
		map[string]int{},
		rbcast.Wire{Origin: 1, Seq: 2, Payload: map[string]int{"a": 1}},
	} {
		out, err := AppendFrame(dst, &Frame{From: 1, To: 2, Kind: "k", Payload: payload})
		if !errors.Is(err, ErrUnregistered) {
			t.Fatalf("%T: got err %v, want ErrUnregistered", payload, err)
		}
		if !strings.Contains(err.Error(), "map[string]int") {
			t.Errorf("%T: error %q does not name the unregistered type", payload, err)
		}
		if string(out) != "prefix" {
			t.Errorf("%T: dst extended to %q on error", payload, out)
		}
	}
}

// TestRegisterIdempotent re-registers an already-registered type: the call
// must be a no-op (first registration wins), never a panic, and ids must not
// shift.
func TestRegisterIdempotent(t *testing.T) {
	before := len(*regByID.Load())
	Register(consensus.Msg{},
		func(e *Encoder, v any) { panic("second registration must not be installed") },
		func(d *Decoder) any { panic("second registration must not be installed") })
	if after := len(*regByID.Load()); after != before {
		t.Fatalf("duplicate Register grew the registry: %d -> %d", before, after)
	}
	// The original codec must still be the live one.
	f := Frame{From: 1, To: 2, Kind: "k", Payload: consensus.Msg{Inst: "i", Round: 1}}
	if got := roundTrip(t, f); !reflect.DeepEqual(got, f) {
		t.Fatalf("round trip after duplicate registration: %+v", got)
	}
}

// TestTruncationsNeverPanic decodes every strict prefix of every valid body:
// each must return ErrMalformed (or decode to a valid shorter frame — ruled
// out by the trailing-bytes check), never panic.
func TestTruncationsNeverPanic(t *testing.T) {
	for _, f := range testFrames() {
		whole, err := AppendFrame(nil, &f)
		if err != nil {
			t.Fatal(err)
		}
		body := whole[4:]
		for cut := 0; cut < len(body); cut++ {
			if _, err := DecodeFrame(body[:cut]); err == nil {
				t.Errorf("frame %q: %d-byte prefix of %d decoded cleanly", f.Kind, cut, len(body))
			} else if !errors.Is(err, ErrMalformed) {
				t.Errorf("frame %q prefix %d: error %v does not wrap ErrMalformed", f.Kind, cut, err)
			}
		}
		// Trailing junk is equally malformed.
		if _, err := DecodeFrame(append(append([]byte{}, body...), 0)); !errors.Is(err, ErrMalformed) {
			t.Errorf("frame %q: trailing byte accepted (%v)", f.Kind, err)
		}
	}
}

func TestMalformedInputs(t *testing.T) {
	cases := map[string][]byte{
		"empty":            {},
		"unknown tag":      {2, 4, 1, 'k', 0xff},
		"unknown reg id":   {2, 4, 1, 'k', tagReg, 0xcf, 0x0f},
		"huge slice count": {2, 4, 1, 'k', tagPIDs, 0xff, 0xff, 0xff, 0xff, 0x0f},
		"huge string len":  {2, 4, 1, 'k', tagString, 0xff, 0xff, 0xff, 0xff, 0x0f},
		"reserved tag":     {2, 4, 1, 'k', 0x11, 3, 1, 2, 3},
		"truncated varint": {0x80},
		"overlong varint":  {2, 4, 1, 'k', tagInt, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80},
	}
	for name, body := range cases {
		if _, err := DecodeFrame(body); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: got err %v, want ErrMalformed", name, err)
		}
	}
	// A nesting bomb: rbcast.Wire payloads wrapping each other deeper than
	// maxDepth must be rejected, not recurse the stack away.
	deep := rbcast.Wire{}
	var payload any
	for i := 0; i < maxDepth+10; i++ {
		deep = rbcast.Wire{Origin: 1, Seq: i, Payload: payload}
		payload = deep
	}
	b, err := AppendFrame(nil, &Frame{From: 1, To: 2, Kind: "k", Payload: payload})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeFrame(b[4:]); !errors.Is(err, ErrMalformed) {
		t.Errorf("nesting bomb: got err %v, want ErrMalformed", err)
	}
}

// TestReadFrameLengthCap: a length prefix beyond MaxFrameLen is malformed —
// the reader must refuse before allocating.
func TestReadFrameLengthCap(t *testing.T) {
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[:4], MaxFrameLen+1)
	_, _, err := ReadFrame(bytes.NewReader(hdr[:]), nil)
	if !errors.Is(err, ErrMalformed) {
		t.Fatalf("oversized length prefix: got %v, want ErrMalformed", err)
	}
}

// TestKindInterning: decoding two frames of one kind must yield the same
// backing string (pointer-equal), the allocation-free fast path.
func TestKindInterning(t *testing.T) {
	f := Frame{From: 1, To: 2, Kind: "intern.probe", Payload: nil}
	a, b := roundTrip(t, f), roundTrip(t, f)
	if unsafe.StringData(a.Kind) != unsafe.StringData(b.Kind) {
		t.Error("decoded kinds not interned to one backing string")
	}
}
