package wire

import (
	"bytes"
	"encoding/binary"
	"sync/atomic"
	"unsafe"

	"repro/internal/core"
)

// The batch memo: one decode per command batch per OS process.
//
// The replicated log's consensus carries the value it decides in every
// estimate, in the proposition and in the reliably broadcast decision, so at
// n=3 one slot's batch crosses the wire ten times (two kicks, two estimates,
// two propositions, four rb.msg), and a receiver that already holds the batch
// would decode every later copy from scratch. The memo remembers recently
// decoded batches by their exact encoded bytes and hands back the same
// decoded value when those bytes come again.
//
// It is exact, not probabilistic. The slot index is a hash of the first
// command's (Origin, Seq) and the count, but a hit requires the input to
// start with the entry's full encoded span (bytes.HasPrefix) and the current
// nesting depth to leave room for the span's own nesting, so a hit returns
// exactly what decoding those bytes would and leaves the decoder at the end
// of the span. A colliding batch is a miss that replaces the entry. A decode
// that fails is never stored, so no cached value escapes alongside an error,
// and a malformed input fails exactly as without the memo.
//
// It is bounded and has no knob: memoSlots entries, each at most
// memoMaxEntryBytes (encoded bytes plus the decoded command slice), so the
// whole memo holds at most memoMaxBytes. Larger batches are decoded every
// time. Entries are immutable and published through atomic pointers, so a
// lookup takes no lock.
//
// Sharing: every decoder in the OS process shares the memo. Under ecnode
// that is one replica; under an in-process mesh it is every replica of the
// mesh, which then hold one decoded copy per batch, as the simulator's
// receivers do. A decoded core.Batch, its Cmds slice and the command
// payloads are therefore shared and read-only: no receiver may write to
// them.
const (
	memoBits  = 8
	memoSlots = 1 << memoBits
	// memoMaxBytes bounds the memo's total size; one entry may take at most
	// memoMaxEntryBytes of it.
	memoMaxBytes      = 4 << 20
	memoMaxEntryBytes = memoMaxBytes / memoSlots
	// minCommandBytes is the smallest encoded command: a one-byte Origin
	// varint, a one-byte Seq varint and a one-byte value tag.
	minCommandBytes = 3
	cmdSize         = int(unsafe.Sizeof(core.Command{}))
)

// memoEntry is one decoded batch and the exact bytes it was decoded from.
type memoEntry struct {
	span  []byte // the count varint and every command, as encoded
	depth int    // nesting the span's values add to the decoder's depth
	batch core.Batch
	boxed any // batch as an interface value: the Batch lane's hit allocates nothing
}

func (e *memoEntry) size() int { return len(e.span) + len(e.batch.Cmds)*cmdSize }

var batchMemo [memoSlots]atomic.Pointer[memoEntry]

// memoSlot returns the memo slot of a batch of n commands whose first command
// starts at rest, or nil when the first command's Origin and Seq do not
// parse (the ordinary decode then reports the error).
func memoSlot(rest []byte, n int) *atomic.Pointer[memoEntry] {
	origin, k := binary.Varint(rest)
	if k <= 0 {
		return nil
	}
	seq, j := binary.Varint(rest[k:])
	if j <= 0 {
		return nil
	}
	h := (uint64(seq) ^ uint64(origin)<<48 ^ uint64(n)<<32) * 0x9e3779b97f4a7c15
	return &batchMemo[h>>(64-memoBits)]
}

// decBatch reads a slot's command batch, encoded inline (no nested tags). It
// also returns the memo entry holding the batch, nil if the batch is not
// memoized. The count is bounded by sliceCap so a hostile frame cannot force
// a huge allocation.
func decBatch(d *Decoder) (core.Batch, *memoEntry) {
	start := d.off
	n, ok := d.sliceCap(d.Uvarint())
	if !ok || n == 0 {
		return core.Batch{}, nil
	}
	slot := memoSlot(d.buf[d.off:], n)
	if slot != nil {
		if e := slot.Load(); e != nil && d.depth+e.depth <= maxDepth && bytes.HasPrefix(d.buf[start:], e.span) {
			d.off = start + len(e.span)
			return e.batch, e
		}
	}
	// Every command takes at least minCommandBytes, so a well-formed batch
	// fits this capacity exactly and decodes into one allocation.
	cmds := make([]core.Command, 0, min(n, (len(d.buf)-d.off)/minCommandBytes))
	base, peak := d.depth, d.peak
	d.peak = base
	for i := 0; i < n && d.err == nil; i++ {
		cmds = append(cmds, decCommand(d))
	}
	depth := d.peak - base
	d.peak = max(peak, d.peak)
	b := core.Batch{Cmds: cmds}
	if d.err != nil || slot == nil {
		return b, nil
	}
	e := &memoEntry{span: d.buf[start:d.off], depth: depth, batch: b}
	if e.size() > memoMaxEntryBytes {
		return b, nil
	}
	e.span = bytes.Clone(e.span) // the frame buffer is reused for the next frame
	e.boxed = b
	slot.Store(e)
	return b, e
}

// decBatchValue is decBatch for the Batch payload lane, returning the batch
// as an interface value.
func decBatchValue(d *Decoder) any {
	b, e := decBatch(d)
	if e != nil {
		return e.boxed
	}
	return b
}
