package dsys

import (
	"maps"
	"slices"
	"sync"
	"sync/atomic"
)

// Message kinds are a small static set of protocol constants, but they are
// strings, and the runtimes' hottest dispatch structures (parked-task lanes,
// receive-buffer indexes) want to be plain slices instead of string-keyed
// maps. The kind table interns every kind ever mentioned into a dense int32
// id and memoizes one KindMatcher per kind, so the ubiquitous
// Recv(MatchKind(kind)) inside a receive loop does not pay an
// interface-boxing allocation per call and a runtime can turn a kind into an
// array index with a single map read at the system boundary (Send, park).
// Ids are process-global and only ever grow; nothing may depend on their
// numeric values (they vary with which packages ran first), only on their
// stability and density.
//
// The table maps each kind to its matcher, which holds the id. It is
// published copy-on-write through an atomic pointer so the hot read path is
// one plain map lookup with no locking.
var (
	kinds   atomic.Pointer[map[string]*kindMatcher]
	kindsMu sync.Mutex
)

// kindMatcher is the one KindMatcher implementation: the kinds it accepts
// and their interned ids, index for index.
type kindMatcher struct {
	kinds []string
	ids   []int32
}

// Match implements Matcher.
func (k *kindMatcher) Match(m *Message) bool {
	for _, kind := range k.kinds {
		if m.Kind == kind {
			return true
		}
	}
	return false
}

// KindIDs implements KindMatcher.
func (k *kindMatcher) KindIDs() []int32 { return k.ids }

// intern returns the memoized single-kind matcher of kind, registering the
// kind on first sight.
func intern(kind string) *kindMatcher {
	if t := kinds.Load(); t != nil {
		if m, ok := (*t)[kind]; ok {
			return m
		}
	}
	kindsMu.Lock()
	defer kindsMu.Unlock()
	var next map[string]*kindMatcher
	if old := kinds.Load(); old != nil {
		if m, ok := (*old)[kind]; ok {
			return m
		}
		next = maps.Clone(*old)
	} else {
		next = map[string]*kindMatcher{}
	}
	m := &kindMatcher{kinds: []string{kind}, ids: []int32{int32(len(next))}}
	next[kind] = m
	kinds.Store(&next)
	return m
}

// MatchKind returns the matcher accepting any message of the given kind.
// The returned value is interned: calling MatchKind in a hot receive loop
// allocates nothing after the first call for a kind.
func MatchKind(kind string) KindMatcher { return intern(kind) }

// MatchKinds returns the matcher accepting any message of one of the given
// kinds; for a single kind it is MatchKind's. Repeated kinds count once.
func MatchKinds(kinds ...string) KindMatcher {
	if len(kinds) == 1 {
		return MatchKind(kinds[0])
	}
	m := &kindMatcher{}
	for _, kind := range kinds {
		id := KindID(kind)
		if !slices.Contains(m.ids, id) {
			m.kinds, m.ids = append(m.kinds, kind), append(m.ids, id)
		}
	}
	return m
}

// KindID returns the dense interned id of a message kind, registering the
// kind on first sight. Ids are stable for the life of the process and
// contiguous from 0, so they can index arrays; their numeric values carry no
// meaning beyond that.
func KindID(kind string) int32 { return intern(kind).ids[0] }
