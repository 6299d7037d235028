package runset

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// valueOf decodes one fuzzed value: a selector byte picks a region — small
// values around zero (negative included), values next to either end of the
// int64 range, or a raw 8-byte word — so short inputs still hit adjacent
// merges and the overflow edges.
func valueOf(data []byte) (q int64, rest []byte, ok bool) {
	if len(data) < 2 {
		return 0, nil, false
	}
	sel, arg := data[0], int64(int8(data[1]))
	switch sel % 4 {
	case 0:
		return arg, data[2:], true
	case 1:
		return math.MaxInt64 - (arg & 0x7), data[2:], true
	case 2:
		return math.MinInt64 + (arg & 0x7), data[2:], true
	default:
		if len(data) < 9 {
			return 0, nil, false
		}
		return int64(binary.LittleEndian.Uint64(data[1:9])), data[9:], true
	}
}

// check verifies the representation invariant and that s holds exactly the
// members of ref.
func check(t *testing.T, s *Set, ref map[int64]bool) {
	t.Helper()
	var members uint64
	for i, r := range s.runs {
		if r.lo > r.hi {
			t.Fatalf("run %d is empty: %+v", i, r)
		}
		if i > 0 && s.runs[i-1].hi >= r.lo-1 {
			t.Fatalf("runs %d and %d overlap or touch: %+v %+v", i-1, i, s.runs[i-1], r)
		}
		members += uint64(r.hi-r.lo) + 1
	}
	if members != uint64(len(ref)) {
		t.Fatalf("runs %v hold %d members, reference holds %d", s.runs, members, len(ref))
	}
	for q := range ref {
		if !s.Has(q) {
			t.Fatalf("member %d missing from runs %v", q, s.runs)
		}
	}
}

// FuzzRunSet is a differential test against map[int64]bool: every Add must
// report freshness exactly as the map does, Has must agree on each value and
// its neighbours, and at the end the runs must be sorted, disjoint and
// non-adjacent and hold exactly the map's members.
func FuzzRunSet(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 3})                   // in order: one run
	f.Add([]byte{0, 3, 0, 1, 0, 2})                   // a gap closed from inside: merge both sides
	f.Add([]byte{0, 5, 0, 5, 0, 4, 0, 6, 0, 4})       // duplicates and both adjacent extensions
	f.Add([]byte{0, 0xff, 0, 0xfe, 0, 0, 0, 1})       // negatives across zero
	f.Add([]byte{1, 0, 1, 1, 1, 2, 2, 0, 2, 1, 2, 2}) // both ends of the range
	f.Add([]byte{3, 1, 2, 3, 4, 5, 6, 7, 8, 0, 9})    // a raw word
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Set
		ref := map[int64]bool{}
		for {
			q, rest, ok := valueOf(data)
			if !ok {
				break
			}
			data = rest
			if fresh := s.Add(q); fresh == ref[q] {
				t.Fatalf("Add(%d) = %v with the value already present = %v (runs %v)", q, fresh, ref[q], s.runs)
			}
			ref[q] = true
			for _, v := range []int64{q - 1, q, q + 1} { // wraps at the ends, which is fine: both sides wrap alike
				if s.Has(v) != ref[v] {
					t.Fatalf("Has(%d) = %v, want %v (runs %v)", v, s.Has(v), ref[v], s.runs)
				}
			}
		}
		check(t, &s, ref)
	})
}

// TestAnyOrderEndsAsOneRun: a contiguous range inserted in any order, with
// duplicates, ends as exactly one run, however many transient runs the
// order cost.
func TestAnyOrderEndsAsOneRun(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		const lo, n = -50, 300
		var s Set
		ref := map[int64]bool{}
		for _, i := range rng.Perm(2 * n) {
			q := int64(lo + i%n)
			if s.Add(q) == ref[q] {
				t.Fatalf("trial %d: Add(%d) freshness wrong", trial, q)
			}
			ref[q] = true
		}
		check(t, &s, ref)
		if s.Runs() != 1 {
			t.Fatalf("trial %d: %d runs, want 1: %v", trial, s.Runs(), s.runs)
		}
	}
}

// TestInOrderAddAllocatesNothing: extending the last run is the steady state
// of every user and must not allocate.
func TestInOrderAddAllocatesNothing(t *testing.T) {
	var s Set
	s.Add(0)
	q := int64(0)
	if avg := testing.AllocsPerRun(1000, func() {
		q++
		s.Add(q)
		s.Has(q)
	}); avg != 0 {
		t.Errorf("an in-order Add allocates %v times, want 0", avg)
	}
}
