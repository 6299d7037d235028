package core

import "repro/internal/dsys"

// Batch state transfer: a replica that finds itself well behind the decided
// frontier fetches the decided range from a peer in chunks instead of
// replaying it one consensus probe per slot (DESIGN.md, decision 10).

// Fetch is the payload of a state-transfer request: "send me your decided
// entries starting at slot From, at most Limit of them".
type Fetch struct {
	From  int
	Limit int
}

// StateEntry is one decided log slot inside a State chunk.
type StateEntry struct {
	Slot  int
	Round int
	Batch Batch
}

// State is one chunk of a state-transfer answer: the donor's contiguous
// decided entries from slot From, plus High, the donor's decided frontier —
// the requester keeps fetching until it has everything below High.
type State struct {
	From    int
	High    int
	Entries []StateEntry
}

// maxTransferChunk is the donor-side cap on entries per State reply.
const maxTransferChunk = 4096

// transferLag is how many slots behind the estimated decided frontier a
// replica must be before it engages batch state transfer. A transfer is a
// blocking network round trip in the log hot path, so small gaps stay on
// the cheap probe path and only a genuine straggler (restart, partition)
// pays for a fetch. The estimate already discounts pipelining: a kick for
// slot k only proves slots up to k-Pipeline decided (the kicker may hold a
// full window of undecided instances above that), so healthy replicas in
// the middle of a deep pipeline are never mistaken for stragglers.
const transferLag = 8

// serveFetch answers a state-transfer request: for a Fetch it sends back
// one State chunk holding the contiguous decided prefix starting at the
// requested slot (stopping at the first gap or the chunk limit) plus this
// replica's decided frontier. Serving is read-only and independent of the
// driver's position, so even a replica that is itself replaying can donate
// the prefix it already has.
func (r *Replica) serveFetch(p dsys.Proc, m *dsys.Message) {
	if m.From == p.ID() {
		return
	}
	req, ok := m.Payload.(Fetch)
	if !ok {
		return
	}
	limit := req.Limit
	if limit <= 0 || limit > maxTransferChunk {
		limit = maxTransferChunk
	}
	resp := State{From: req.From}
	r.mu.Lock()
	resp.High = r.decidedHigh
	for s := req.From; s > 0 && s <= r.decidedHigh && len(resp.Entries) < limit; s++ {
		dec, ok := r.decisionLocked(s)
		if !ok {
			break
		}
		b, isBatch := dec.value.(Batch)
		if !isBatch {
			break
		}
		resp.Entries = append(resp.Entries, StateEntry{Slot: s, Round: dec.round, Batch: b})
	}
	r.mu.Unlock()
	p.Send(m.From, r.stateKind, resp)
}

// installState records a chunk's decisions locally and returns how many were
// new. Decisions are facts — installing one learned from any peer is always
// safe — and the donor's frontier advances decidedHigh even when the chunk
// itself is empty, so the requester knows how far it still has to fetch.
func (r *Replica) installState(st State) int {
	fresh := 0
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range st.Entries {
		if r.recordLocked(e.Slot, e.Round, e.Batch) {
			fresh++
		}
	}
	if st.High > r.decidedHigh {
		r.decidedHigh = st.High
	}
	return fresh
}

// nextGap returns the first slot >= from this replica has no decision for,
// and the current decided frontier.
func (r *Replica) nextGap(from int) (int, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := from
	for s <= r.decidedHigh {
		if _, ok := r.decisionLocked(s); !ok {
			break
		}
		s++
	}
	return s, r.decidedHigh
}

// donors lists the peers a state transfer should try, in order: the
// detector's trusted process first (the likeliest to hold the full decided
// prefix), then everyone else in id order, skipping this process and
// currently suspected ones.
func (r *Replica) donors(p dsys.Proc) []dsys.ProcessID {
	susp := r.det.Suspected()
	var out []dsys.ProcessID
	if t := r.det.Trusted(); t != dsys.None && t != r.self && !susp.Has(t) {
		out = append(out, t)
	}
	for _, q := range p.All() {
		if q == r.self || susp.Has(q) || (len(out) > 0 && q == out[0]) {
			continue
		}
		out = append(out, q)
	}
	return out
}

// stateTransfer fetches the decided range [slot, frontier] from peers in
// chunked round trips, installing each chunk as it lands, and reports
// whether it installed anything. A donor that times out or stops yielding
// new entries is abandoned for the next one; when every donor has been
// tried the caller falls back to slot-by-slot consensus probes.
func (r *Replica) stateTransfer(p dsys.Proc, slot int) bool {
	installed := false
	match := dsys.MatchKind(r.stateKind)
	for _, donor := range r.donors(p) {
		for {
			next, high := r.nextGap(slot)
			if installed && next > high {
				return true // every known slot fetched; the driver takes over
			}
			p.Send(donor, r.fetchKind, Fetch{From: next, Limit: r.cfg.TransferChunk})
			m, ok := p.RecvTimeout(match, r.cfg.TransferTimeout)
			if !ok {
				break // donor silent (crashed or partitioned): next donor
			}
			// A late chunk from a previously abandoned donor may arrive here
			// instead of the current donor's reply; installing it is still
			// correct, and a no-progress answer just moves us along.
			if r.installState(m.Payload.(State)) == 0 {
				if next2, high2 := r.nextGap(slot); next2 > high2 {
					return installed
				}
				break // donor knows no more than we do: next donor
			}
			installed = true
		}
	}
	return installed
}
