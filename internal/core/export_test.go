package core

import "repro/internal/dsys"

// NewLogOnly returns the log half of process self's replica: decisions
// are recorded and applied by direct calls, with no task, detector or
// broadcast module behind them.
func NewLogOnly(self dsys.ProcessID, apply func(slot int, cmd Command)) *Replica {
	return &Replica{
		cfg:       Config{Apply: apply},
		self:      self,
		decided:   make(map[int]decision),
		seen:      make(cmdSet),
		kicks:     make(map[int]Batch),
		applyNext: 1,
		nextOpen:  1,
	}
}

// RecordDecision records slot's decision as the decide broadcast would.
func (r *Replica) RecordDecision(slot, round int, b Batch) bool {
	return r.recordDecision(slot, round, b)
}

// DrainApplies applies every contiguously decided slot, as the driver does.
func (r *Replica) DrainApplies() { r.drainApplies() }

// SeenRuns returns how many runs origin's applied sequence numbers occupy.
func (r *Replica) SeenRuns(origin dsys.ProcessID) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if seqs := r.seen[origin]; seqs != nil {
		return seqs.Runs()
	}
	return 0
}

// ParkedLen returns how many decisions are parked above the apply frontier.
func (r *Replica) ParkedLen() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.decided)
}

// DeliveredRuns reads the replica's broadcast module's dedup state.
func (r *Replica) DeliveredRuns() (runs, sources int) { return r.rb.DeliveredRuns() }

// PendingKeep is the largest capacity a drained pending buffer keeps.
const PendingKeep = pendingKeep

// PendingCap returns the capacity of the pending buffer's array.
func (r *Replica) PendingCap() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return cap(r.pending)
}
