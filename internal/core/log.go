package core

import (
	"repro/internal/dsys"
	"repro/internal/runset"
)

// The decision log. Each decided slot's batch is held once: in the parked map
// (r.decided) while the slot is at or above the apply frontier, then in the
// dense applied log (r.log) from the moment the driver starts applying it.
// Everything else a caller can read — the applied command sequence, its
// length, a state-transfer chunk, a late straggler's answer — is derived from
// those two, and "applied once" is kept by one run set of sequence numbers
// per origin (DESIGN.md, decision 17).

// decision is what a log slot decided and in which round.
type decision struct {
	round int
	value any
}

// AppliedEntry is one applied log entry.
type AppliedEntry struct {
	Slot int
	Cmd  Command
}

// cmdSet is a set of command identities (Origin, Seq): one run set per
// origin, since an origin's commands apply in Seq order (per-origin FIFO) and
// so form one run per SeqBase.
type cmdSet map[dsys.ProcessID]*runset.Set

// add inserts c's identity and reports whether it was absent.
func (s cmdSet) add(c Command) bool {
	seqs := s[c.Origin]
	if seqs == nil {
		seqs = new(runset.Set)
		s[c.Origin] = seqs
	}
	return seqs.Add(c.Seq)
}

func (s cmdSet) has(c Command) bool {
	seqs := s[c.Origin]
	return seqs != nil && seqs.Has(c.Seq)
}

// decisionLocked returns slot's decision if this replica holds one: from the
// applied log below its end, from the parked map above it.
func (r *Replica) decisionLocked(slot int) (decision, bool) {
	if slot < 1 {
		return decision{}, false
	}
	if slot <= len(r.log) {
		return r.log[slot-1], true
	}
	dec, ok := r.decided[slot]
	return dec, ok
}

// recordLocked parks slot's decision unless one is already held (or the slot
// number is not a log slot), and reports whether it was new.
func (r *Replica) recordLocked(slot, round int, value any) bool {
	if slot < 1 {
		return false
	}
	if _, dup := r.decisionLocked(slot); dup {
		return false
	}
	r.decided[slot] = decision{round, value}
	if slot > r.decidedHigh {
		r.decidedHigh = slot
	}
	return true
}

// recordDecision stores slot's decision unless one is already held, and
// reports whether it was new. Decisions are facts: whichever source delivers
// one first (decide broadcast, probe answer, state chunk) is as good as any.
func (r *Replica) recordDecision(slot, round int, value any) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.recordLocked(slot, round, value)
}

func (r *Replica) lookupDecided(slot int) (any, int, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if dec, ok := r.decisionLocked(slot); ok {
		return dec.value, dec.round, true
	}
	return nil, 0, false
}

// drainApplies applies every contiguously decided slot from applyNext on, in
// strict slot order — decisions that arrived out of order sit parked in the
// decided map until the slots below them land. Only the driver task calls
// this, so Apply callbacks are never concurrent. Completing a slot releases
// the own-batch in-flight marker (also when a peer adopted our kicked batch
// and it was decided — and applied — at some other slot) and prunes the
// kick buffer.
func (r *Replica) drainApplies() {
	r.mu.Lock()
	for {
		dec, ok := r.decided[r.applyNext]
		if !ok {
			break
		}
		slot := r.applyNext
		// The slot joins the log before its first command applies, so a reader
		// inside an Apply callback sees the slot decided and the command applied.
		delete(r.decided, slot)
		r.log = append(r.log, dec)
		batch, _ := dec.value.(Batch)
		for _, cmd := range batch.Cmds {
			// Apply each (Origin, Seq) at most once. The same command can be
			// decided in two slots: a replica idle at slot j that received a
			// kick announcing a batch for slot k>j proposes it at j, while
			// the kicker proposes it at k, and both instances can decide it.
			if r.seen.add(cmd) {
				r.appliedLen++
				if apply := r.cfg.Apply; apply != nil {
					r.mu.Unlock()
					apply(slot, cmd)
					r.mu.Lock()
				}
			}
			if cmd.Origin == r.self {
				r.dropPendingLocked(cmd.Seq)
			}
		}
		delete(r.kicks, slot)
		r.applyNext = slot + 1
		if r.nextOpen < r.applyNext {
			r.nextOpen = r.applyNext
		}
		if r.inflightSlot != 0 && r.applyNext > r.inflightSlot {
			r.inflightSlot, r.inflight = 0, nil
		}
	}
	// Early release: the in-flight chunk may have been fully applied below
	// its slot (a peer adopted our kick at a lower slot); holding the marker
	// until inflightSlot itself applies would stall fresh own proposals.
	if r.inflightSlot != 0 {
		all := true
		for _, cmd := range r.inflight {
			if !r.seen.has(cmd) {
				all = false
				break
			}
		}
		if all {
			r.inflightSlot, r.inflight = 0, nil
		}
	}
	r.mu.Unlock()
}

// replayLocked calls emit for every applied command in order: the log's
// batches with drainApplies' first-occurrence dedup replayed over them,
// stopped after appliedLen commands so that a call from inside an Apply
// callback ends at the command being applied.
func (r *Replica) replayLocked(emit func(slot int, cmd Command)) {
	seen := cmdSet{}
	left := r.appliedLen
	for i := 0; left > 0 && i < len(r.log); i++ {
		batch, _ := r.log[i].value.(Batch)
		for _, cmd := range batch.Cmds {
			if left == 0 {
				return
			}
			if seen.add(cmd) {
				emit(i+1, cmd)
				left--
			}
		}
	}
}

// Applied returns the applied (slot, command) records so far, in order — the
// sequence of Apply callbacks, including from inside one, where the last
// record is the command being applied. It is rebuilt from the decided
// batches on every call (the replica keeps no second copy of its commands),
// so it costs time linear in the log; AppliedLen is the cheap progress read.
func (r *Replica) Applied() []AppliedEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]AppliedEntry, 0, r.appliedLen)
	r.replayLocked(func(slot int, cmd Command) { out = append(out, AppliedEntry{Slot: slot, Cmd: cmd}) })
	return out
}

// AppliedLen returns the number of applied commands, len(Applied()) read
// from a counter: what a status report or a progress poll wants.
func (r *Replica) AppliedLen() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.appliedLen
}

// AppliedValues returns just the applied command payloads, in log order.
func (r *Replica) AppliedValues() []any {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]any, 0, r.appliedLen)
	r.replayLocked(func(_ int, cmd Command) { out = append(out, cmd.Payload) })
	return out
}
