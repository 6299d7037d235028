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

// transfer is one batch state transfer in progress: the decided range from
// the first gap on is fetched from peers in chunked round trips, each chunk
// installed as it lands. A donor that times out or stops yielding new
// entries is abandoned for the next one; when every donor has been tried
// the driver falls back to slot-by-slot consensus probes.
type transfer struct {
	slot      int              // the first gap when the transfer began
	frontier  int              // the estimated decided frontier it began for
	donors    []dsys.ProcessID // the peers still to try, current first
	installed bool             // some chunk brought a new decision
}

// beginTransfer reports whether the replica should fetch the decided range
// now, and if so prepares x. When the decided frontier is well past our
// first gap (we restarted, or missed decisions while partitioned away), a
// few round trips fetch the whole range instead of replaying it one
// consensus probe per slot. A kick for slot k proves slots up to k-Pipeline
// decided (the kicker holds at most a window of undecided instances), so
// announcements reveal the frontier even when the decide broadcasts
// themselves were missed — discounted by the window so a healthy pipelined
// replica is never dragged into a fetch. After a transfer that made no
// progress, it does not retry until the frontier moves again (the per-slot
// probe path remains the fallback).
func (r *Replica) beginTransfer(p dsys.Proc, x *transfer) bool {
	r.mu.Lock()
	frontier := r.decidedHigh
	if kf := r.kickHigh - r.cfg.Pipeline; kf > frontier {
		frontier = kf
	}
	stalled := frontier <= r.transferStall
	r.mu.Unlock()
	gap, _ := r.nextGap(r.applyNextNow())
	if frontier-gap < transferLag || stalled {
		return false
	}
	*x = transfer{slot: gap, frontier: frontier, donors: r.donors(p)}
	return true
}

// fetchNext asks x's current donor for the next chunk and reports true, or
// reports false when the transfer is over: every known slot is fetched, or
// no donor is left.
func (r *Replica) fetchNext(p dsys.Proc, x *transfer) bool {
	if len(x.donors) == 0 {
		return false
	}
	next, high := r.nextGap(x.slot)
	if x.installed && next > high {
		return false // every known slot fetched; the driver takes over
	}
	p.Send(x.donors[0], r.fetchKind, Fetch{From: next, Limit: r.cfg.TransferChunk})
	return true
}

// fetched handles the answer to x's last request — m is nil when the donor
// stayed silent for TransferTimeout — and reports whether the transfer goes
// on.
func (r *Replica) fetched(x *transfer, m *dsys.Message) bool {
	switch {
	case m == nil:
		x.donors = x.donors[1:] // donor silent (crashed or partitioned): next donor
	case r.installState(m.Payload.(State)) > 0:
		// A late chunk from a previously abandoned donor may arrive here
		// instead of the current donor's reply; installing it is still
		// correct.
		x.installed = true
	default:
		// A no-progress answer moves us along.
		if next, high := r.nextGap(x.slot); next > high {
			return false
		}
		x.donors = x.donors[1:] // donor knows no more than we do: next donor
	}
	return true
}

// endTransfer records a transfer that installed nothing, so the driver does
// not retry it until the frontier moves.
func (r *Replica) endTransfer(x *transfer) {
	if x.installed {
		return
	}
	r.mu.Lock()
	if x.frontier > r.transferStall {
		r.transferStall = x.frontier
	}
	r.mu.Unlock()
}
