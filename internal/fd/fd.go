// Package fd defines the unreliable-failure-detector abstractions of the
// paper (Section 2): the classical suspect-set query of the Chandra–Toueg
// classes, the trusted-process query of Ω, and their combination — the
// paper's new class ◇C (Eventually Consistent).
//
// The classes are characterized by which properties the returned values
// satisfy over a run:
//
//   - Strong completeness: eventually every crashed process is permanently
//     suspected by every correct process.
//   - Weak completeness: eventually every crashed process is permanently
//     suspected by some correct process.
//   - Eventual strong accuracy: there is a time after which no correct
//     process is suspected by any correct process.
//   - Eventual weak accuracy: there is a time after which some correct
//     process is never suspected by any correct process.
//   - Ω property (Property 1): there is a time after which every correct
//     process permanently trusts the same correct process.
//
// ◇P = strong completeness + eventual strong accuracy; ◇S = strong
// completeness + eventual weak accuracy; and ◇C (Definition 1) = the ◇S
// properties on Suspected, the Ω property on Trusted, plus: there is a time
// after which the trusted process is not suspected.
//
// The properties themselves are *verified over traces* by package check;
// this package only defines the query interfaces and the Set type.
//
// Set has the value semantics of a slice, not of the map it once was: Add and
// Remove have pointer receivers and change the variable they are called on,
// while an assignment or a by-value parameter copies only the header and
// shares the storage — so of two such copies at most one may be mutated, and
// whoever needs an independent set takes a Clone (every Suspected() does).
// Members() returns a private copy the caller may keep or modify; no query
// mutates, and Has, Len, Equal and FirstNonSuspected do not allocate.
package fd

import (
	"slices"
	"strings"

	"repro/internal/dsys"
)

// Set is a set of processes, used for suspect lists. Suspect lists hold the
// crashed few, not the n monitored, so a Set is the sorted slice of its
// members: queries binary-search it, Members and String need no sorting, and
// the zero value is the empty set and owns no memory. It is a value with a
// slice's sharing rules; see the package comment.
type Set struct {
	ids []dsys.ProcessID // strictly increasing
}

// NewSet builds a Set from the given processes, in any order and with
// repeats; it does not keep ids.
func NewSet(ids ...dsys.ProcessID) Set {
	if len(ids) == 0 {
		return Set{}
	}
	out := slices.Clone(ids)
	slices.Sort(out)
	return Set{slices.Compact(out)}
}

// Has reports membership.
func (s Set) Has(id dsys.ProcessID) bool {
	_, ok := slices.BinarySearch(s.ids, id)
	return ok
}

// Add inserts id.
func (s *Set) Add(id dsys.ProcessID) {
	if n := len(s.ids); n == 0 || s.ids[n-1] < id {
		s.ids = append(s.ids, id) // in increasing order, the common case
		return
	}
	if i, ok := slices.BinarySearch(s.ids, id); !ok {
		s.ids = slices.Insert(s.ids, i, id)
	}
}

// Remove deletes id.
func (s *Set) Remove(id dsys.ProcessID) {
	if i, ok := slices.BinarySearch(s.ids, id); ok {
		s.ids = slices.Delete(s.ids, i, i+1)
	}
}

// Clone returns an independent copy.
func (s Set) Clone() Set { return Set{slices.Clone(s.ids)} }

// Len returns the number of members.
func (s Set) Len() int { return len(s.ids) }

// Members returns the members in increasing process order, as a fresh
// non-nil slice.
func (s Set) Members() []dsys.ProcessID {
	return append(make([]dsys.ProcessID, 0, len(s.ids)), s.ids...)
}

// Equal reports whether two sets have the same members.
func (s Set) Equal(o Set) bool { return slices.Equal(s.ids, o.ids) }

// String renders the set like "{p2 p5}".
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, id := range s.ids {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(id.String())
	}
	b.WriteByte('}')
	return b.String()
}

// Suspector is the classical failure-detector query: D.suspected_p, the set
// of processes the detector module at p currently believes to have crashed.
// Implementations return a private snapshot the caller may keep or modify.
type Suspector interface {
	Suspected() Set
}

// LeaderOracle is the Ω query: D.trusted_p, the single process the module at
// p currently believes to be correct. It returns dsys.None only before the
// module has produced its first estimate.
type LeaderOracle interface {
	Trusted() dsys.ProcessID
}

// EventuallyConsistent is the query interface of the paper's class ◇C
// (Definition 1): both a suspect set with the ◇S properties and a trusted
// process with the Ω property, with the trusted process eventually not
// suspected.
type EventuallyConsistent interface {
	Suspector
	LeaderOracle
}

// LeadershipDeferrer is implemented by detector modules whose Trusted()
// choice can pass over processes that report themselves not ready to lead.
// A layer above (e.g. a replicated log whose replica is replaying missed
// slots after a restart) registers a readiness predicate; while it returns
// false the module flags its own process as deferring in the signals it
// already sends, so peers' Trusted() skip it and leadership lands on the
// next caught-up process instead of parking on a deaf one. Deferral is
// advisory and transient: it must not affect Suspected(), and when every
// candidate defers (or the predicate never turns true) implementations fall
// back to the plain ◇C choice, preserving the Ω property.
type LeadershipDeferrer interface {
	// SetReadiness registers fn; nil unregisters. fn must be safe to call
	// from any task and should be cheap — it is consulted on the module's
	// signalling path.
	SetReadiness(fn func() bool)
}

// Beacon is implemented by detectors whose (believed) leader periodically
// broadcasts to all other processes. It lets other layers piggyback payloads
// on those broadcasts — the optimization of Section 4 that halves the
// message cost of the ◇C → ◇P transformation.
type Beacon interface {
	// SetBeaconPayload registers fn; its result is attached to every
	// periodic leader broadcast this module sends while it believes itself
	// leader. Only one payload source may be registered.
	SetBeaconPayload(fn func() any)
	// OnBeacon registers a handler invoked (on the module's task) for every
	// leader broadcast received, with the sender and attached payload.
	OnBeacon(fn func(from dsys.ProcessID, payload any))
}

// FirstNonSuspected returns the first process in the order p1 < p2 < ... pn
// that is not in s, or dsys.None if all n are suspected. It is the
// leader-extraction rule the paper uses to build ◇C on top of ◇P (Section
// 3): with eventually identical suspect sets, all correct processes
// eventually agree on this choice.
func FirstNonSuspected(s Set, n int) dsys.ProcessID {
	// One walk over the sorted members: the answer is the first gap in the
	// run 1, 2, 3, ... they start with.
	first := dsys.ProcessID(1)
	for _, id := range s.ids {
		if id > first {
			break
		}
		if id == first {
			first++
		}
	}
	if int(first) > n {
		return dsys.None
	}
	return first
}
