// Package runset is an exact set of int64 values stored as runs: a sorted
// list of disjoint, non-adjacent closed intervals [lo, hi]. It is the dedup
// set for identities that arrive nearly in order — a per-origin command
// sequence, a per-incarnation broadcast sequence — where a map would hold one
// entry per member forever and a run list holds one run per contiguous
// stretch. The set is exact whatever the insertion order: out-of-order
// members only cost transient runs until the gap between them fills.
package runset

// Set is a set of int64 values. The zero value is an empty set.
type Set struct {
	runs []run // sorted by lo; runs[i].hi+1 < runs[i+1].lo
}

type run struct{ lo, hi int64 }

// Add inserts q and reports whether it was absent. Extending the last run —
// the in-order case — is O(1) and allocates nothing; otherwise Add is a binary
// search plus at most one slice shift, and merges q's neighbours when q
// closes the gap between them.
func (s *Set) Add(q int64) (fresh bool) {
	if n := len(s.runs); n > 0 {
		last := &s.runs[n-1]
		if q > last.hi {
			if q == last.hi+1 { // last.hi < q, so hi+1 cannot overflow
				last.hi = q
				return true
			}
			s.runs = append(s.runs, run{q, q})
			return true
		}
		if q >= last.lo {
			return false
		}
	}
	i := s.above(q) // first run with lo > q
	if i > 0 && q <= s.runs[i-1].hi {
		return false
	}
	// Here runs[i-1].hi < q < runs[i].lo, so q-1 and q+1 cannot overflow.
	joinsLeft := i > 0 && s.runs[i-1].hi == q-1
	joinsRight := i < len(s.runs) && s.runs[i].lo == q+1
	switch {
	case joinsLeft && joinsRight:
		s.runs[i-1].hi = s.runs[i].hi
		s.runs = append(s.runs[:i], s.runs[i+1:]...)
	case joinsLeft:
		s.runs[i-1].hi = q
	case joinsRight:
		s.runs[i].lo = q
	default:
		s.runs = append(s.runs, run{})
		copy(s.runs[i+1:], s.runs[i:])
		s.runs[i] = run{q, q}
	}
	return true
}

// Has reports whether q is in the set.
func (s *Set) Has(q int64) bool {
	i := s.above(q)
	return i > 0 && q <= s.runs[i-1].hi
}

// Runs returns the number of disjoint runs the set is stored as.
func (s *Set) Runs() int { return len(s.runs) }

// above returns the index of the first run starting above q.
func (s *Set) above(q int64) int {
	lo, hi := 0, len(s.runs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s.runs[m].lo > q {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}
