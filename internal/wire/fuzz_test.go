package wire

import (
	"bytes"
	"testing"
)

// FuzzWireRoundTrip feeds arbitrary bytes to the frame decoder. Three
// guarantees are enforced: decoding never panics (every error surfaces as
// ErrMalformed); the batch memo is invisible — decoding with the memo as
// earlier inputs left it, from an empty memo, and again from the memo that
// decode filled give the same frame or the same error; and any body that
// does decode is a fixed point — the decoded frame re-encodes, and decoding
// and encoding that once more yields the same bytes.
func FuzzWireRoundTrip(f *testing.F) {
	for _, fr := range testFrames() {
		b, err := AppendFrame(nil, &fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b[4:]) // seed with valid bodies (the fuzzer mutates from here)
	}
	f.Add([]byte{})
	f.Add([]byte{2, 4, 1, 'k', tagReg, 0x03})
	f.Add([]byte{2, 4, 1, 'k', 0x11, 3, 1, 2, 3}) // reserved tag
	f.Fuzz(func(t *testing.T, body []byte) {
		fr, err := decodeBoth(t, body) // must not panic, whatever body holds
		if err != nil {
			return
		}
		hit, err := DecodeFrame(body)
		if err != nil {
			t.Fatalf("second decode of a decodable body failed: %v", err)
		}
		re, err := AppendFrame(nil, &fr)
		if reHit, _ := AppendFrame(nil, &hit); err == nil && !bytes.Equal(re, reHit) {
			t.Fatalf("memo hit decoded differently:\n miss %#v\n hit  %#v", fr, hit)
		}
		if err != nil {
			t.Fatalf("decoded frame failed to re-encode: %v (frame %#v)", err, fr)
		}
		fr2, err := DecodeFrame(re[4:])
		if err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v (frame %#v)", err, fr)
		}
		// Bytes, not DeepEqual: a NaN payload is unequal to itself.
		re2, err := AppendFrame(nil, &fr2)
		if err != nil || !bytes.Equal(re, re2) {
			t.Fatalf("round trip not a fixed point (%v):\n first  %#v\n second %#v", err, fr, fr2)
		}
	})
}
