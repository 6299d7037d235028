// Package member provides a group-membership service — totally ordered
// views — built on the paper's stack: the ◇C failure detector supplies
// suspicions, and the replicated log (package core, i.e. one ◇C consensus
// instance per slot) totally orders view changes, so every correct process
// installs exactly the same sequence of views. Group communication systems
// are the application domain the paper's introduction motivates; this
// package is the classic construction of one on top of consensus.
//
// The model has permanent crashes and a fixed process set Π, so views only
// shrink: members are evicted (by agreement) once some member has suspected
// them continuously for EvictAfter, or leave voluntarily. A member falsely
// suspected for longer than EvictAfter can be evicted while alive —
// unavoidable in an asynchronous system (primary-partition semantics); the
// detector's eventual accuracy makes that window close after stabilization.
// Views are an application-level overlay: an evicted process keeps
// participating in the underlying consensus substrate.
package member

import (
	"sort"
	"sync"
	"time"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/dsys"
	"repro/internal/fd"
	"repro/internal/fd/ring"
)

// View is one numbered membership configuration.
type View struct {
	// ID increases by one per view change, starting at 1 for the full view.
	ID int
	// Members is sorted ascending.
	Members []dsys.ProcessID
}

// Has reports membership of q in the view.
func (v View) Has(q dsys.ProcessID) bool {
	for _, m := range v.Members {
		if m == q {
			return true
		}
	}
	return false
}

// clone returns an independent copy.
func (v View) clone() View {
	out := View{ID: v.ID, Members: make([]dsys.ProcessID, len(v.Members))}
	copy(out.Members, v.Members)
	return out
}

// change is the log command driving view transitions.
type change struct {
	// Target leaves the membership.
	Target dsys.ProcessID
	// ViewID is the view the proposer observed; a change is applied only
	// against the view it was proposed in, so concurrent duplicate
	// proposals collapse into one transition.
	ViewID int
	// Voluntary marks a self-requested leave (vs. a suspicion eviction).
	Voluntary bool
}

// Config configures a membership Service.
type Config struct {
	// Detector supplies suspicions; if nil a ring ◇C detector is started.
	Detector fd.EventuallyConsistent
	// Ring configures the default detector (ignored when Detector is set).
	Ring ring.Options
	// Consensus namespaces the underlying replicated log. All members must
	// agree on it.
	Consensus consensus.Options
	// EvictAfter is how long a member must be continuously suspected
	// before this process proposes its eviction (default 100ms). Larger
	// values trade eviction latency for fewer wrongful evictions.
	EvictAfter time.Duration
	// Poll is the suspicion sampling interval (default 10ms).
	Poll time.Duration
	// OnView, if set, is called after each view installation, in order.
	OnView func(View)
}

// Service is one process's membership engine.
type Service struct {
	cfg  Config
	self dsys.ProcessID
	rep  *core.Replica
	det  fd.EventuallyConsistent

	mu           sync.Mutex
	view         View
	history      []View
	suspectSince map[dsys.ProcessID]time.Duration
	proposed     map[change]bool // eviction proposals already submitted
}

// Start attaches a membership service to p's process.
func Start(p dsys.Proc, cfg Config) *Service {
	if cfg.EvictAfter <= 0 {
		cfg.EvictAfter = 100 * time.Millisecond
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 10 * time.Millisecond
	}
	s := &Service{
		cfg:          cfg,
		self:         p.ID(),
		det:          cfg.Detector,
		view:         View{ID: 1, Members: dsys.Pids(p.N())},
		suspectSince: make(map[dsys.ProcessID]time.Duration),
		proposed:     make(map[change]bool),
	}
	if s.det == nil {
		s.det = ring.Start(p, cfg.Ring)
	}
	s.history = append(s.history, s.view.clone())
	cc := cfg.Consensus
	if cc.Instance == "" {
		cc.Instance = "member"
	}
	s.rep = core.StartReplica(p, core.Config{
		Detector:  s.det,
		Consensus: cc,
		Apply:     s.apply,
	})
	dsys.SpawnTickLoop(p, "member-evict", dsys.TickLoop{Period: s.cfg.Poll, Fn: s.evictStep})
	return s
}

// View returns the current view.
func (s *Service) View() View {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.view.clone()
}

// History returns every installed view, in order (starting with the full
// view, ID 1).
func (s *Service) History() []View {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]View, len(s.history))
	for i, v := range s.history {
		out[i] = v.clone()
	}
	return out
}

// Leave submits a voluntary departure of this process. The caller should
// keep the process running until the change is installed (the view with the
// process removed appears in History everywhere).
func (s *Service) Leave() {
	s.mu.Lock()
	c := change{Target: s.self, ViewID: s.view.ID, Voluntary: true}
	s.mu.Unlock()
	s.rep.Submit(c)
}

// Detector returns the underlying failure detector.
func (s *Service) Detector() fd.EventuallyConsistent { return s.det }

// apply installs a view change decided by the log. It runs on the replica's
// task, in slot order, identically at every correct process.
func (s *Service) apply(_ int, cmd core.Command) {
	c, ok := cmd.Payload.(change)
	if !ok {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Stale or duplicate: the proposal raced with another change.
	if c.ViewID != s.view.ID || !s.view.Has(c.Target) {
		return
	}
	next := View{ID: s.view.ID + 1}
	for _, m := range s.view.Members {
		if m != c.Target {
			next.Members = append(next.Members, m)
		}
	}
	sort.Slice(next.Members, func(i, j int) bool { return next.Members[i] < next.Members[j] })
	s.view = next
	s.history = append(s.history, next.clone())
	if s.cfg.OnView != nil {
		cb := s.cfg.OnView
		v := next.clone()
		s.mu.Unlock()
		cb(v)
		s.mu.Lock()
	}
}

// evictStep runs every Poll: it samples the detector and proposes evictions
// for members that stay suspected past EvictAfter.
func (s *Service) evictStep(p dsys.Proc) {
	now := p.Now()
	susp := s.det.Suspected()
	s.mu.Lock()
	var submit []change
	for _, m := range s.view.Members {
		if m == s.self {
			continue
		}
		if !susp.Has(m) {
			delete(s.suspectSince, m)
			continue
		}
		since, ok := s.suspectSince[m]
		if !ok {
			s.suspectSince[m] = now
			continue
		}
		if now-since >= s.cfg.EvictAfter {
			c := change{Target: m, ViewID: s.view.ID}
			if !s.proposed[c] {
				s.proposed[c] = true
				submit = append(submit, c)
			}
		}
	}
	s.mu.Unlock()
	for _, c := range submit {
		s.rep.Submit(c)
	}
}
