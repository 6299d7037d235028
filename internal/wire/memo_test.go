package wire

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/rbcast"
)

// resetMemo empties the batch memo, so the next decode of any batch is a
// miss.
func resetMemo() {
	for i := range batchMemo {
		batchMemo[i].Store(nil)
	}
}

func frameBody(t *testing.T, payload any) []byte {
	t.Helper()
	b, err := AppendFrame(nil, &Frame{From: 1, To: 2, Kind: "k", Payload: payload})
	if err != nil {
		t.Fatal(err)
	}
	return b[4:]
}

// decodeBoth decodes body with the memo as it stands and again from an empty
// memo, and fails unless both give the same frame or the same error.
func decodeBoth(t *testing.T, body []byte) (Frame, error) {
	t.Helper()
	warm, werr := DecodeFrame(body)
	resetMemo()
	cold, cerr := DecodeFrame(body)
	if (werr == nil) != (cerr == nil) || werr != nil && werr.Error() != cerr.Error() {
		t.Fatalf("memoized decode error %v, uncached %v", werr, cerr)
	}
	// Compared by encoding, not DeepEqual: a NaN payload is unequal to itself.
	w, _ := AppendFrame(nil, &warm)
	c, _ := AppendFrame(nil, &cold)
	if !bytes.Equal(w, c) {
		t.Fatalf("memoized decode %#v, uncached %#v", warm, cold)
	}
	return warm, werr
}

// TestBatchMemoNeverStale decodes a batch, then one with the same first
// (Origin, Seq) and count but one payload byte changed, then every truncated
// copy of it: each must decode exactly as it would with no memo.
func TestBatchMemoNeverStale(t *testing.T) {
	resetMemo()
	a := core.Batch{Cmds: []core.Command{{Origin: 2, Seq: 40, Payload: "alpha"}, {Origin: 2, Seq: 41, Payload: []byte{1, 2, 3}}}}
	b := core.Batch{Cmds: []core.Command{{Origin: 2, Seq: 40, Payload: "alphb"}, {Origin: 2, Seq: 41, Payload: []byte{1, 2, 3}}}}
	bodyA, bodyB := frameBody(t, a), frameBody(t, b)

	first, err := DecodeFrame(bodyA)
	if err != nil || !reflect.DeepEqual(first.Payload, a) {
		t.Fatalf("decode a: %v, %#v", err, first.Payload)
	}
	// The second decode of the same bytes is a hit: the same value, down to
	// the command slice.
	again, err := DecodeFrame(bodyA)
	if err != nil || &again.Payload.(core.Batch).Cmds[0] != &first.Payload.(core.Batch).Cmds[0] {
		t.Fatalf("second decode of a did not return the memoized batch (%v)", err)
	}
	// Same slot key, different bytes: a miss that replaces the entry.
	got, err := DecodeFrame(bodyB)
	if err != nil || !reflect.DeepEqual(got.Payload, b) {
		t.Fatalf("decode b after a: %v, %#v", err, got.Payload)
	}
	if got, _ := DecodeFrame(bodyA); !reflect.DeepEqual(got.Payload, a) {
		t.Fatalf("decode a after b: %#v", got.Payload)
	}
	// Truncated copies of b, each with b's entry in the memo: the error, and
	// its offset, are those of a decode without the memo.
	for cut := 0; cut < len(bodyB); cut++ {
		if _, err := DecodeFrame(bodyB); err != nil {
			t.Fatal(err)
		}
		if _, err := decodeBoth(t, bodyB[:cut]); err == nil {
			t.Fatalf("%d-byte prefix of %d decoded cleanly", cut, len(bodyB))
		}
	}

	// A batch held in the memo is shared by every lane that carries it.
	held, err := DecodeFrame(bodyA)
	if err != nil {
		t.Fatal(err)
	}
	kick, err := DecodeFrame(frameBody(t, core.Kick{Slot: 3, Batch: a}))
	if err != nil || &kick.Payload.(core.Kick).Batch.Cmds[0] != &held.Payload.(core.Batch).Cmds[0] {
		t.Fatalf("a kick carrying a did not share its memoized batch (%v)", err)
	}
}

// TestBatchMemoKeepsNestingBound: a hit must fail where the uncached decode
// would, even though the batch's bytes decoded fine at a shallower depth.
func TestBatchMemoKeepsNestingBound(t *testing.T) {
	var payload any = "leaf"
	for i := 0; i < 10; i++ {
		payload = rbcast.Wire{Origin: 1, Seq: i, Payload: payload}
	}
	batch := core.Batch{Cmds: []core.Command{{Origin: 3, Seq: 7, Payload: payload}}}
	var deep any = consensus.Decide{Inst: "i", Value: batch}
	for i := 0; i < maxDepth-12; i++ {
		deep = rbcast.Wire{Origin: 1, Seq: i, Payload: deep}
	}
	resetMemo()
	if _, err := DecodeFrame(frameBody(t, batch)); err != nil {
		t.Fatal(err)
	}
	_, err := decodeBoth(t, frameBody(t, deep))
	if err == nil || !strings.Contains(err.Error(), "nesting too deep") {
		t.Fatalf("deeply nested copy of a memoized batch: got %v, want the nesting bound", err)
	}
}

// TestBatchMemoBounded decodes many large batches, some above the per-entry
// share: the memo must stay within its entry and byte bounds and never hold
// an oversized batch.
func TestBatchMemoBounded(t *testing.T) {
	resetMemo()
	payload := strings.Repeat("x", 180)
	huge := strings.Repeat("y", memoMaxEntryBytes)
	for i := 0; i < 4*memoSlots; i++ {
		cmds := make([]core.Command, 64)
		for j := range cmds {
			cmds[j] = core.Command{Origin: 2, Seq: int64(i*64 + j), Payload: payload}
		}
		if i%7 == 0 {
			cmds[len(cmds)-1].Payload = huge
		}
		body := frameBody(t, core.Batch{Cmds: cmds})
		first, err := DecodeFrame(body)
		if err != nil {
			t.Fatal(err)
		}
		again, _ := DecodeFrame(body)
		shared := &first.Payload.(core.Batch).Cmds[0] == &again.Payload.(core.Batch).Cmds[0]
		if shared != (i%7 != 0) {
			t.Fatalf("batch %d (oversized %v): second decode shared %v", i, i%7 == 0, shared)
		}
	}
	entries, total := 0, 0
	for i := range batchMemo {
		e := batchMemo[i].Load()
		if e == nil {
			continue
		}
		entries++
		total += e.size()
		if e.size() > memoMaxEntryBytes {
			t.Errorf("entry of %d bytes above the %d-byte share", e.size(), memoMaxEntryBytes)
		}
	}
	t.Logf("%d entries, %d bytes", entries, total)
	if entries > memoSlots || total > memoMaxBytes {
		t.Fatalf("memo holds %d entries and %d bytes, bounds %d and %d", entries, total, memoSlots, memoMaxBytes)
	}
	if entries < memoSlots/2 {
		t.Fatalf("memo holds only %d entries after %d cacheable batches", entries, 4*memoSlots)
	}
}
