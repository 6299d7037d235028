// Package wire is the compact binary frame codec of the socket transports
// (tcpnet streams, udpnet datagrams). A frame is a 4-byte big-endian length
// prefix followed by a hand-rolled body
//
//	varint(From) varint(To) string(Kind) value(Payload)
//
// where value is a one-byte tag plus a type-specific body. This is the only
// encoding the transports put on a socket, and every byte of it is specified
// here. Payload types fall into three lanes:
//
//   - primitives (nil, bool, int, int64, uint, uint32, uint64, float64,
//     string, []byte, dsys.ProcessID, time.Duration) have dedicated tags and
//     allocate nothing to encode;
//   - the small slice types protocol messages carry ([]dsys.ProcessID,
//     []uint32, []uint64) have dedicated tags too;
//   - struct payloads (omega beats, consensus envelopes, reliable-broadcast
//     wires, replicated-log commands; see payloads.go) are registered in a
//     type registry with hand-rolled field codecs, addressed on the wire by a
//     small integer id. An application sending its own payload type calls
//     Register with an encode/decode pair first.
//
// A payload whose dynamic type is in none of the lanes does not encode:
// Encoder.Value and AppendFrame report ErrUnregistered, naming the type.
//
// Registry ids are assigned in registration order, so every process of a
// mesh must perform the same registrations in the same order — trivially
// true for the loopback meshes in this repository (one OS process) and for
// any binary that registers application payloads from package init or before
// starting the mesh. Registration is idempotent: registering the same type
// twice is a no-op, never a panic.
//
// Decoding never panics on malformed input (fuzzed by FuzzWireRoundTrip):
// every read is bounds-checked, lengths are capped by MaxFrameLen, and
// nesting depth is capped by maxDepth.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dsys"
)

// MaxFrameLen caps the body length of one frame. A length prefix above the
// cap is malformed: it protects the reader from allocating gigabytes on a
// corrupt or hostile stream.
const MaxFrameLen = 8 << 20

// maxDepth caps value nesting (payloads carrying payloads). Protocol
// payloads nest two or three levels; the cap only exists so crafted input
// cannot recurse the decoder into a stack overflow.
const maxDepth = 64

// ErrMalformed tags every decode error caused by the input bytes (as opposed
// to I/O errors from the underlying reader). Transports use it to tell "bad
// frame, drop it and trace" from "connection teardown".
var ErrMalformed = errors.New("wire: malformed frame")

// ErrUnregistered tags the encode error for a payload (top-level or nested)
// whose dynamic type is neither a primitive nor registered with Register. The
// error text names the type.
var ErrUnregistered = errors.New("wire: unregistered payload type")

// Frame is the transport-level message envelope, the unit of encoding.
type Frame struct {
	From, To dsys.ProcessID
	Kind     string
	Payload  any
}

// Value tags. The tag space is append-only: new tags must be added at the
// end so recorded streams stay decodable.
const (
	tagNil      = 0x00
	tagFalse    = 0x01
	tagTrue     = 0x02
	tagInt      = 0x03 // zigzag varint, decodes as int
	tagInt64    = 0x04 // zigzag varint, decodes as int64
	tagUint     = 0x05 // uvarint, decodes as uint
	tagUint32   = 0x06 // uvarint, decodes as uint32
	tagUint64   = 0x07 // uvarint, decodes as uint64
	tagFloat64  = 0x08 // 8 bytes little endian, math.Float64bits
	tagString   = 0x09 // uvarint length + bytes
	tagBytes    = 0x0a // uvarint length + bytes
	tagPID      = 0x0b // zigzag varint, decodes as dsys.ProcessID
	tagDuration = 0x0c // zigzag varint nanoseconds, decodes as time.Duration
	tagPIDs     = 0x0d // uvarint count + zigzag varints
	tagU32s     = 0x0e // uvarint count + uvarints
	tagU64s     = 0x0f // uvarint count + uvarints
	tagReg      = 0x10 // uvarint registry id + registered codec body
	// 0x11 is reserved (the deleted gob blob lane); it decodes as ErrMalformed
	// like any unknown tag, and the next new tag is 0x12.
)

// EncodeFunc appends the body of a registered payload value to the encoder.
// It must mirror its DecodeFunc exactly.
type EncodeFunc func(e *Encoder, v any)

// DecodeFunc reads the body of a registered payload value. It reports
// malformed input through the decoder's error state and must not panic.
type DecodeFunc func(d *Decoder) any

// regEntry is one registered payload type.
type regEntry struct {
	id  uint64
	typ reflect.Type
	enc EncodeFunc
	dec DecodeFunc
}

// The registry is copy-on-write behind atomic pointers so the per-frame
// lookups (by type on encode, by id on decode) are plain loads with no lock.
var (
	regMu    sync.Mutex
	regByTyp atomic.Pointer[map[reflect.Type]*regEntry]
	regByID  atomic.Pointer[[]*regEntry]
)

// Register adds a payload type to the registry: values whose dynamic type
// equals sample's encode through enc and decode through dec, addressed by a
// small integer id assigned in registration order. Registering a type that
// is already registered is a no-op (the first registration wins), so
// double-registration can never panic the process.
func Register(sample any, enc EncodeFunc, dec DecodeFunc) {
	typ := reflect.TypeOf(sample)
	if typ == nil {
		return
	}
	regMu.Lock()
	defer regMu.Unlock()
	if m := regByTyp.Load(); m != nil {
		if _, ok := (*m)[typ]; ok {
			return
		}
	}
	var ids []*regEntry
	if p := regByID.Load(); p != nil {
		ids = *p
	}
	ent := &regEntry{id: uint64(len(ids)), typ: typ, enc: enc, dec: dec}
	nextIDs := make([]*regEntry, len(ids)+1)
	copy(nextIDs, ids)
	nextIDs[len(ids)] = ent
	nextTyp := make(map[reflect.Type]*regEntry, len(nextIDs))
	if m := regByTyp.Load(); m != nil {
		for k, v := range *m {
			nextTyp[k] = v
		}
	}
	nextTyp[typ] = ent
	regByID.Store(&nextIDs)
	regByTyp.Store(&nextTyp)
}

// ---------------------------------------------------------------------------
// Encoder

// Encoder appends the wire representation of values to a byte slice. The
// zero value (or one holding a recycled buffer) is ready to use. The one
// encoding error, ErrUnregistered, is sticky in err.
type Encoder struct {
	buf []byte
	err error
}

// Reset arms the encoder to append to buf (keeping its capacity).
func (e *Encoder) Reset(buf []byte) { e.buf = buf[:0]; e.err = nil }

// Bytes returns the encoded bytes.
func (e *Encoder) Bytes() []byte { return e.buf }

// Err returns the first encoding error.
func (e *Encoder) Err() error { return e.err }

func (e *Encoder) byte(b byte)      { e.buf = append(e.buf, b) }
func (e *Encoder) Uvarint(x uint64) { e.buf = binary.AppendUvarint(e.buf, x) }
func (e *Encoder) Varint(x int64)   { e.buf = binary.AppendVarint(e.buf, x) }

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Bool appends one byte.
func (e *Encoder) Bool(b bool) {
	if b {
		e.byte(1)
	} else {
		e.byte(0)
	}
}

// Value appends a tagged payload value, choosing the primitive, slice or
// registered lane by dynamic type. A type in none of them appends nothing and
// sets ErrUnregistered.
func (e *Encoder) Value(v any) {
	switch x := v.(type) {
	case nil:
		e.byte(tagNil)
	case bool:
		if x {
			e.byte(tagTrue)
		} else {
			e.byte(tagFalse)
		}
	case int:
		e.byte(tagInt)
		e.Varint(int64(x))
	case int64:
		e.byte(tagInt64)
		e.Varint(x)
	case uint:
		e.byte(tagUint)
		e.Uvarint(uint64(x))
	case uint32:
		e.byte(tagUint32)
		e.Uvarint(uint64(x))
	case uint64:
		e.byte(tagUint64)
		e.Uvarint(x)
	case float64:
		e.byte(tagFloat64)
		e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(x))
	case string:
		e.byte(tagString)
		e.String(x)
	case []byte:
		e.byte(tagBytes)
		e.Uvarint(uint64(len(x)))
		e.buf = append(e.buf, x...)
	case dsys.ProcessID:
		e.byte(tagPID)
		e.Varint(int64(x))
	case time.Duration:
		e.byte(tagDuration)
		e.Varint(int64(x))
	case []dsys.ProcessID:
		e.byte(tagPIDs)
		e.Uvarint(uint64(len(x)))
		for _, id := range x {
			e.Varint(int64(id))
		}
	case []uint32:
		e.byte(tagU32s)
		e.Uvarint(uint64(len(x)))
		for _, u := range x {
			e.Uvarint(uint64(u))
		}
	case []uint64:
		e.byte(tagU64s)
		e.Uvarint(uint64(len(x)))
		for _, u := range x {
			e.Uvarint(u)
		}
	default:
		if m := regByTyp.Load(); m != nil {
			if ent, ok := (*m)[reflect.TypeOf(v)]; ok {
				e.byte(tagReg)
				e.Uvarint(ent.id)
				ent.enc(e, v)
				return
			}
		}
		if e.err == nil {
			e.err = fmt.Errorf("%w %T", ErrUnregistered, v)
		}
	}
}

// ---------------------------------------------------------------------------
// Decoder

// Decoder reads the wire representation back. Malformed input makes every
// subsequent read return zero values with a sticky ErrMalformed; decoding
// never panics.
type Decoder struct {
	buf   []byte
	off   int
	depth int
	// peak is the deepest nesting reached so far, so a memoized batch can
	// record how deep its own values nest (see batchMemo).
	peak int
	err  error
}

// Reset arms the decoder to read from buf.
func (d *Decoder) Reset(buf []byte) { *d = Decoder{buf: buf} }

// Err returns the sticky decode error, nil if none so far.
func (d *Decoder) Err() error { return d.err }

// fail marks the input malformed.
func (d *Decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s at offset %d", ErrMalformed, what, d.off)
	}
}

func (d *Decoder) byte() byte {
	if d.err != nil || d.off >= len(d.buf) {
		d.fail("truncated")
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	x, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.off += n
	return x
}

// Varint reads a zigzag varint.
func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	x, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.off += n
	return x
}

// take returns the next n bytes of the input.
func (d *Decoder) take(n uint64) []byte {
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)-d.off) {
		d.fail("truncated")
		return nil
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b
}

// String reads a length-prefixed string.
func (d *Decoder) String() string { return string(d.take(d.Uvarint())) }

// Bool reads one byte.
func (d *Decoder) Bool() bool { return d.byte() != 0 }

// Int reads a zigzag varint as int.
func (d *Decoder) Int() int { return int(d.Varint()) }

// PID reads a process id.
func (d *Decoder) PID() dsys.ProcessID { return dsys.ProcessID(d.Varint()) }

// sliceCap bounds a decoded element count: each element costs at least one
// input byte, so a count beyond the remaining input is malformed (and would
// otherwise let a few bytes allocate gigabytes).
func (d *Decoder) sliceCap(n uint64) (int, bool) {
	if d.err != nil {
		return 0, false
	}
	if n > uint64(len(d.buf)-d.off) {
		d.fail("element count beyond input")
		return 0, false
	}
	return int(n), true
}

// Value reads one tagged payload value.
func (d *Decoder) Value() any {
	if d.err != nil {
		return nil
	}
	if d.depth++; d.depth > maxDepth {
		d.fail("nesting too deep")
		return nil
	}
	if d.depth > d.peak {
		d.peak = d.depth
	}
	// The depth is restored on return rather than in a defer: decoding never
	// panics, and a per-value defer was a visible share of the live receive
	// path.
	v := d.value()
	d.depth--
	return v
}

// value reads the tag and body of one value; Value owns the depth count.
func (d *Decoder) value() any {
	switch tag := d.byte(); tag {
	case tagNil:
		return nil
	case tagFalse:
		return false
	case tagTrue:
		return true
	case tagInt:
		return int(d.Varint())
	case tagInt64:
		return d.Varint()
	case tagUint:
		return uint(d.Uvarint())
	case tagUint32:
		return uint32(d.Uvarint())
	case tagUint64:
		return d.Uvarint()
	case tagFloat64:
		b := d.take(8)
		if b == nil {
			return nil
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	case tagString:
		return d.String()
	case tagBytes:
		b := d.take(d.Uvarint())
		if b == nil {
			return nil
		}
		out := make([]byte, len(b))
		copy(out, b)
		return out
	case tagPID:
		return dsys.ProcessID(d.Varint())
	case tagDuration:
		return time.Duration(d.Varint())
	case tagPIDs:
		n, ok := d.sliceCap(d.Uvarint())
		if !ok {
			return nil
		}
		out := make([]dsys.ProcessID, n)
		for i := range out {
			out[i] = dsys.ProcessID(d.Varint())
		}
		return d.checked(out)
	case tagU32s:
		n, ok := d.sliceCap(d.Uvarint())
		if !ok {
			return nil
		}
		out := make([]uint32, n)
		for i := range out {
			out[i] = uint32(d.Uvarint())
		}
		return d.checked(out)
	case tagU64s:
		n, ok := d.sliceCap(d.Uvarint())
		if !ok {
			return nil
		}
		out := make([]uint64, n)
		for i := range out {
			out[i] = d.Uvarint()
		}
		return d.checked(out)
	case tagReg:
		id := d.Uvarint()
		ids := regByID.Load()
		if d.err != nil || ids == nil || id >= uint64(len(*ids)) {
			d.fail("unknown registered payload id")
			return nil
		}
		return d.checked((*ids)[id].dec(d))
	default:
		d.fail("unknown value tag")
		return nil
	}
}

// checked returns v, or nil if a decode error occurred while producing it —
// so a half-decoded value never escapes alongside the error.
func (d *Decoder) checked(v any) any {
	if d.err != nil {
		return nil
	}
	return v
}

// ---------------------------------------------------------------------------
// Frames

// Encoder/Decoder states are pooled: the registry dispatches through function
// pointers, so a stack-declared state would be forced to escape and cost one
// heap allocation per frame on the transport hot path.
var (
	frameEncPool = sync.Pool{New: func() any { return new(Encoder) }}
	frameDecPool = sync.Pool{New: func() any { return new(Decoder) }}
)

// AppendFrame appends the full wire representation of f — 4-byte big-endian
// body length, then the body — to dst and returns the extended slice. It
// fails, returning dst unextended, on an ErrUnregistered payload type or a
// body above MaxFrameLen — both properties of the frame alone, so retrying
// the same frame cannot succeed.
func AppendFrame(dst []byte, f *Frame) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	e := frameEncPool.Get().(*Encoder)
	e.buf, e.err = dst, nil
	e.Varint(int64(f.From))
	e.Varint(int64(f.To))
	e.String(f.Kind)
	e.Value(f.Payload)
	out, err := e.buf, e.err
	e.buf = nil // do not pin the caller's buffer in the pool
	frameEncPool.Put(e)
	if err != nil {
		return dst[:start], err
	}
	body := len(out) - start - 4
	if body > MaxFrameLen {
		return dst[:start], fmt.Errorf("wire: frame body %d bytes exceeds MaxFrameLen", body)
	}
	binary.BigEndian.PutUint32(out[start:], uint32(body))
	return out, nil
}

// DecodeFrame decodes one frame body (the bytes after the length prefix).
// The body must be fully consumed; trailing bytes are malformed. Errors wrap
// ErrMalformed and decoding never panics.
func DecodeFrame(body []byte) (Frame, error) {
	d := frameDecPool.Get().(*Decoder)
	d.Reset(body)
	var f Frame
	f.From = d.PID()
	f.To = d.PID()
	f.Kind = d.kindString()
	f.Payload = d.Value()
	if d.err == nil && d.off != len(body) {
		d.fail("trailing bytes")
	}
	err := d.err
	d.buf = nil // do not pin the frame body in the pool
	frameDecPool.Put(d)
	if err != nil {
		return Frame{}, err
	}
	return f, nil
}

// ReadFrame reads one length-prefixed frame from r, reusing buf (grown as
// needed) for the body, and returns the decoded frame plus the buffer for
// the next call. I/O errors pass through untouched; a length prefix beyond
// MaxFrameLen or an undecodable body returns an error wrapping ErrMalformed.
func ReadFrame(r io.Reader, buf []byte) (Frame, []byte, error) {
	// The header is read into the reusable body buffer, not a local array: a
	// local would escape through the io.Reader interface and cost one heap
	// allocation per frame.
	if cap(buf) < 4 {
		buf = make([]byte, 64)
	}
	hdr := buf[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return Frame{}, buf, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > MaxFrameLen {
		return Frame{}, buf, fmt.Errorf("%w: length prefix %d exceeds MaxFrameLen", ErrMalformed, n)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return Frame{}, buf, err
	}
	f, err := DecodeFrame(buf)
	return f, buf, err
}

// ---------------------------------------------------------------------------
// Kind interning

// Message kinds are a small set of protocol constants, but they arrive off
// the wire as fresh byte slices; interning them makes Kind decoding
// allocation-free after the first frame of each kind. The table is published
// copy-on-write (same pattern as dsys.MatchKind) and capped so a hostile
// stream cannot grow it without bound.
const maxInternedKinds = 4096

var (
	kindsMu sync.Mutex
	kinds   atomic.Pointer[map[string]string]
)

// kindString reads a length-prefixed string and interns it. The hot path is
// a map lookup keyed by string(b), which the compiler performs without
// materializing the string — zero allocations once a kind has been seen.
func (d *Decoder) kindString() string {
	b := d.take(d.Uvarint())
	if m := kinds.Load(); m != nil {
		if v, ok := (*m)[string(b)]; ok {
			return v
		}
	}
	return internKind(string(b))
}

func internKind(k string) string {
	kindsMu.Lock()
	defer kindsMu.Unlock()
	old := kinds.Load()
	if old != nil {
		if v, ok := (*old)[k]; ok {
			return v
		}
		if len(*old) >= maxInternedKinds {
			return k
		}
	}
	next := make(map[string]string)
	if old != nil {
		for s, v := range *old {
			next[s] = v
		}
	}
	next[k] = k
	kinds.Store(&next)
	return k
}
