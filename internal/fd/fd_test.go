package fd_test

import (
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dsys"
	"repro/internal/fd"
)

func TestSetBasics(t *testing.T) {
	s := fd.NewSet(3, 1)
	if !s.Has(1) || !s.Has(3) || s.Has(2) {
		t.Error("membership wrong")
	}
	s.Add(2)
	s.Remove(3)
	if got := s.String(); got != "{p1 p2}" {
		t.Errorf("String() = %q", got)
	}
	if s.Len() != 2 {
		t.Errorf("Len() = %d", s.Len())
	}
	if got := s.Members(); !reflect.DeepEqual(got, []dsys.ProcessID{1, 2}) {
		t.Errorf("Members() = %v", got)
	}
}

func TestSetEqual(t *testing.T) {
	cases := []struct {
		a, b fd.Set
		want bool
	}{
		{fd.NewSet(), fd.NewSet(), true},
		{fd.NewSet(1, 2), fd.NewSet(2, 1), true},
		{fd.NewSet(1), fd.NewSet(2), false},
		{fd.NewSet(1, 2), fd.NewSet(1), false},
		{fd.NewSet(1, 1, 1), fd.NewSet(1), true}, // repeats collapse
		{fd.Set{}, fd.NewSet(), true},            // the zero value is the empty set
	}
	for i, c := range cases {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("case %d: Equal = %v, want %v", i, got, c.want)
		}
	}
}

func TestEmptySetString(t *testing.T) {
	if got := fd.NewSet().String(); got != "{}" {
		t.Errorf("String() = %q", got)
	}
}

func TestFirstNonSuspected(t *testing.T) {
	cases := []struct {
		susp []dsys.ProcessID
		n    int
		want dsys.ProcessID
	}{
		{nil, 5, 1},
		{[]dsys.ProcessID{1}, 5, 2},
		{[]dsys.ProcessID{1, 2, 3, 4}, 5, 5},
		{[]dsys.ProcessID{1, 2, 3, 4, 5}, 5, dsys.None},
		{[]dsys.ProcessID{2, 4}, 5, 1},
	}
	for i, c := range cases {
		if got := fd.FirstNonSuspected(fd.NewSet(c.susp...), c.n); got != c.want {
			t.Errorf("case %d: got %v, want %v", i, got, c.want)
		}
	}
}

// randomSet is the explicit testing/quick generator for Sets: a random subset
// of 1..n with n ≤ 16, built through a random mix of the three ways a Set
// comes to exist (NewSet from an unsorted list with repeats, Add in random
// order, Clone of either), so every property below is checked against each
// construction path.
type randomSet struct {
	s fd.Set
	n int
}

func (randomSet) Generate(r *rand.Rand, _ int) reflect.Value {
	n := 1 + r.Intn(16)
	var ids []dsys.ProcessID
	for i := 1; i <= n; i++ {
		for k := r.Intn(3); k > 0; k-- { // absent, once or twice
			ids = append(ids, dsys.ProcessID(i))
		}
	}
	r.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	var s fd.Set
	switch r.Intn(3) {
	case 0:
		s = fd.NewSet(ids...)
	case 1:
		for _, id := range ids {
			s.Add(id)
		}
	default:
		s = fd.NewSet(ids...).Clone()
	}
	return reflect.ValueOf(randomSet{s, n})
}

func TestQuickCloneIsEqualAndIndependent(t *testing.T) {
	f := func(g randomSet) bool {
		s, before := g.s, g.s.Members()
		c := s.Clone()
		if !s.Equal(c) {
			return false
		}
		// Mutating the clone at the end, in the middle and by removal must
		// leave the original as it was.
		c.Add(17)
		c.Add(0)
		for _, id := range before {
			c.Remove(id)
		}
		return !s.Has(17) && !s.Has(0) && reflect.DeepEqual(s.Members(), before)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickMembersSortedAndConsistent(t *testing.T) {
	f := func(g randomSet) bool {
		s := g.s
		ms := s.Members()
		if len(ms) != s.Len() {
			return false
		}
		for i, m := range ms {
			if !s.Has(m) {
				return false
			}
			if i > 0 && ms[i-1] >= m {
				return false
			}
		}
		// Members is a private copy.
		if len(ms) > 0 {
			ms[0] = 99
			return !s.Has(99)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickFirstNonSuspectedIsMinimalNonMember(t *testing.T) {
	f := func(g randomSet) bool {
		s, n := g.s, g.n
		got := fd.FirstNonSuspected(s, n)
		if got == dsys.None {
			return s.Len() == n
		}
		if s.Has(got) {
			return false
		}
		for q := dsys.ProcessID(1); q < got; q++ {
			if !s.Has(q) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickEqualIsEquivalenceOnRandomSets(t *testing.T) {
	f := func(ga, gb randomSet) bool {
		a, b := ga.s, gb.s
		// Symmetry, reflexivity.
		if !a.Equal(a) || a.Equal(b) != b.Equal(a) {
			return false
		}
		// Equal sets are exactly those with identical Members.
		return a.Equal(b) == reflect.DeepEqual(a.Members(), b.Members())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSetMatchesMapModel drives a population of Sets and of reference
// map[dsys.ProcessID]bool models through the same random NewSet / Add /
// Remove / Clone sequence and requires every query to agree after every step:
// the sorted-slice Set must be indistinguishable, through its method set, from
// the map it replaced — including that clones never share a mutation.
func TestSetMatchesMapModel(t *testing.T) {
	type model = map[dsys.ProcessID]bool
	const maxID = 12
	members := func(m model) []dsys.ProcessID {
		out := make([]dsys.ProcessID, 0, len(m))
		for id := dsys.ProcessID(-1); id <= maxID+1; id++ {
			if m[id] {
				out = append(out, id)
			}
		}
		return out
	}
	render := func(m model) string {
		var b strings.Builder
		b.WriteByte('{')
		for i, id := range members(m) {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(id.String())
		}
		return b.String() + "}"
	}
	firstNon := func(m model, n int) dsys.ProcessID {
		for i := 1; i <= n; i++ {
			if !m[dsys.ProcessID(i)] {
				return dsys.ProcessID(i)
			}
		}
		return dsys.None
	}
	for seed := int64(1); seed <= 50; seed++ {
		r := rand.New(rand.NewSource(seed))
		sets, models := []fd.Set{{}}, []model{{}}
		// Ids include 0 and negatives: not valid processes, but a Set must
		// still order and store whatever it is given.
		randID := func() dsys.ProcessID { return dsys.ProcessID(r.Intn(maxID+3) - 1) }
		for step := 0; step < 400; step++ {
			i := r.Intn(len(sets))
			switch op := r.Intn(10); {
			case op < 4:
				id := randID()
				sets[i].Add(id)
				models[i][id] = true
			case op < 7:
				id := randID()
				sets[i].Remove(id)
				delete(models[i], id)
			case op < 8:
				ids := make([]dsys.ProcessID, r.Intn(6))
				m := model{}
				for k := range ids {
					ids[k] = randID()
					m[ids[k]] = true
				}
				before := slices.Clone(ids)
				sets[i], models[i] = fd.NewSet(ids...), m
				if !slices.Equal(ids, before) {
					t.Fatalf("seed %d step %d: NewSet reordered its argument", seed, step)
				}
			default:
				c := model{}
				for id := range models[i] {
					c[id] = true
				}
				if len(sets) < 6 {
					sets, models = append(sets, sets[i].Clone()), append(models, c)
				} else {
					j := r.Intn(len(sets))
					sets[j], models[j] = sets[i].Clone(), c
				}
			}
			for k, s := range sets {
				m := models[k]
				if s.Len() != len(m) {
					t.Fatalf("seed %d step %d set %d: Len %d, model %d", seed, step, k, s.Len(), len(m))
				}
				for id := dsys.ProcessID(-2); id <= maxID+2; id++ {
					if s.Has(id) != m[id] {
						t.Fatalf("seed %d step %d set %d: Has(%d) = %v, model %v", seed, step, k, id, s.Has(id), m[id])
					}
				}
				if got, want := s.Members(), members(m); !slices.Equal(got, want) || got == nil {
					t.Fatalf("seed %d step %d set %d: Members %v, model %v", seed, step, k, got, want)
				}
				if got, want := s.String(), render(m); got != want {
					t.Fatalf("seed %d step %d set %d: String %q, model %q", seed, step, k, got, want)
				}
				for n := 0; n <= maxID+1; n++ {
					if got, want := fd.FirstNonSuspected(s, n), firstNon(m, n); got != want {
						t.Fatalf("seed %d step %d set %d: FirstNonSuspected(%v, %d) = %v, model %v", seed, step, k, s, n, got, want)
					}
				}
				for k2, s2 := range sets {
					if got, want := s.Equal(s2), maps.Equal(m, models[k2]); got != want {
						t.Fatalf("seed %d step %d: Equal(%v, %v) = %v, model %v", seed, step, s, s2, got, want)
					}
				}
			}
		}
	}
}

func TestMatchKind(t *testing.T) {
	m := &dsys.Message{Kind: "x"}
	if !dsys.MatchKind("x").Match(m) || dsys.MatchKind("y").Match(m) {
		t.Error("MatchKind wrong")
	}
	if !dsys.MatchAny.Match(m) {
		t.Error("MatchAny wrong")
	}
}

func TestMajorityAndMaxFaulty(t *testing.T) {
	cases := []struct{ n, maj, f int }{
		{1, 1, 0}, {2, 2, 0}, {3, 2, 1}, {4, 3, 1}, {5, 3, 2}, {6, 4, 2}, {7, 4, 3},
	}
	for _, c := range cases {
		if got := dsys.Majority(c.n); got != c.maj {
			t.Errorf("Majority(%d) = %d, want %d", c.n, got, c.maj)
		}
		if got := dsys.MaxFaulty(c.n); got != c.f {
			t.Errorf("MaxFaulty(%d) = %d, want %d", c.n, got, c.f)
		}
		// f < n/2 always, and majority of n needs more than half.
		if 2*dsys.MaxFaulty(c.n) >= c.n {
			t.Errorf("MaxFaulty(%d) not a strict minority", c.n)
		}
		if 2*dsys.Majority(c.n) <= c.n {
			t.Errorf("Majority(%d) not a strict majority", c.n)
		}
	}
}

func TestProcessIDString(t *testing.T) {
	if dsys.ProcessID(3).String() != "p3" || dsys.None.String() != "p?" {
		t.Error("ProcessID.String wrong")
	}
}

func TestPids(t *testing.T) {
	if got := dsys.Pids(3); !reflect.DeepEqual(got, []dsys.ProcessID{1, 2, 3}) {
		t.Errorf("Pids(3) = %v", got)
	}
}
