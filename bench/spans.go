package main

import (
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/consensus"
	"repro/internal/consensus/cec"
	"repro/internal/core"
	"repro/internal/dsys"
	"repro/internal/rbcast"
	"repro/internal/trace"
)

// The span model. trace.Collector logs every send with its send time, kind
// and payload; a log slot's consensus instance is recognisable in that log
// by consensus.Msg.Inst ("<ns>/log/<slot>"), so the sends of one slot can be
// joined into the phases of the paper's Fig. 3 without a probe inside cec:
//
//	cec.coord  (first, deciding round)      ── phase 0 ──▶  cec.est (last from a participant)
//	cec.est    (last from a participant)    ── phase 1+2 ─▶  cec.prop (first non-null)
//	cec.prop   (first non-null)             ── phase 3+4 ─▶  rb.msg carrying consensus.Decide
//	rb.msg     (first)                      ── rbcast ────▶  Apply at the origin (from the Apply hook)
//
// Rounds before the deciding one only count (rounds, nacks): their time is
// the gap between a slot's first message and the deciding round's coord.

const noTime = time.Duration(-1)

// roundMarks are the phase boundaries seen for one (slot, round).
type roundMarks struct {
	coord, estLast, prop time.Duration
}

// slotSpan is the joined view of one log slot.
type slotSpan struct {
	Slot        int
	Round       int // round carried by the decide broadcast; 0 if none logged
	Rounds      int // highest round any message of the slot carried
	Coord       time.Duration
	EstLast     time.Duration
	Prop        time.Duration
	Decide      time.Duration
	CecMsgs     int // cec.* sends that crossed the network
	RbMsgs      int // rb.msg sends that crossed the network
	Nacks       int
	Probes      int
	roundsMarks map[int]*roundMarks
}

// cmdID identifies a command across the log.
type cmdID struct {
	origin dsys.ProcessID
	seq    int64
}

// logJoin is the result of one pass over a message log.
type logJoin struct {
	slots map[int]*slotSpan
	// firstKick is when each command first left its origin inside a slot
	// announcement — the end of its wait in core's pending buffer.
	firstKick map[cmdID]time.Duration
	fetches   int
}

// slotOfInst extracts the slot from a log instance name, 0 if it is not one.
func slotOfInst(inst string) int {
	i := strings.LastIndex(inst, "/log/")
	if i < 0 {
		return 0
	}
	s, err := strconv.Atoi(inst[i+len("/log/"):])
	if err != nil || s < 1 {
		return 0
	}
	return s
}

// joinLog folds a message log into per-slot spans.
func joinLog(events []trace.MsgEvent) *logJoin {
	j := &logJoin{slots: map[int]*slotSpan{}, firstKick: map[cmdID]time.Duration{}}
	slot := func(s int) *slotSpan {
		sp := j.slots[s]
		if sp == nil {
			sp = &slotSpan{Slot: s, Coord: noTime, EstLast: noTime, Prop: noTime, Decide: noTime,
				roundsMarks: map[int]*roundMarks{}}
			j.slots[s] = sp
		}
		return sp
	}
	type kickKey struct {
		from dsys.ProcessID
		slot int
	}
	kickSeen := map[kickKey]bool{}
	for i := range events {
		e := &events[i]
		remote := e.From != e.To
		switch {
		case strings.HasPrefix(e.Kind, "cec."):
			env, ok := e.Payload.(consensus.Msg)
			if !ok {
				continue
			}
			s := slotOfInst(env.Inst)
			if s == 0 {
				continue
			}
			sp := slot(s)
			if remote {
				sp.CecMsgs++
			}
			if env.Round > sp.Rounds {
				sp.Rounds = env.Round
			}
			rm := sp.roundsMarks[env.Round]
			if rm == nil {
				rm = &roundMarks{coord: noTime, estLast: noTime, prop: noTime}
				sp.roundsMarks[env.Round] = rm
			}
			switch e.Kind {
			case cec.KindCoord:
				if rm.coord == noTime {
					rm.coord = e.At
				}
			case cec.KindEst:
				// The coordinator's estimate to itself never crosses the
				// network; a participant's marks the end of its Phase 0.
				if remote && !env.Null && e.At > rm.estLast {
					rm.estLast = e.At
				}
			case cec.KindProp:
				if !env.Null && rm.prop == noTime {
					rm.prop = e.At
				}
			case cec.KindNack:
				sp.Nacks++
			case cec.KindProbe:
				if remote {
					sp.Probes++
				}
			}
		case strings.HasPrefix(e.Kind, rbcast.Kind):
			w, ok := e.Payload.(rbcast.Wire)
			if !ok {
				continue
			}
			dec, ok := w.Payload.(consensus.Decide)
			if !ok {
				continue
			}
			s := slotOfInst(dec.Inst)
			if s == 0 {
				continue
			}
			sp := slot(s)
			if remote {
				sp.RbMsgs++
			}
			if sp.Decide == noTime {
				sp.Decide = e.At
				sp.Round = dec.Round
			}
		case strings.HasPrefix(e.Kind, core.KindKick):
			k, ok := e.Payload.(core.Kick)
			if !ok {
				continue
			}
			// One announcement is n−1 sends of the same batch.
			key := kickKey{e.From, k.Slot}
			if kickSeen[key] {
				continue
			}
			kickSeen[key] = true
			for _, c := range k.Batch.Cmds {
				id := cmdID{c.Origin, c.Seq}
				if _, seen := j.firstKick[id]; !seen {
					j.firstKick[id] = e.At
				}
			}
		case strings.HasPrefix(e.Kind, core.KindFetch):
			j.fetches++
		}
	}
	for _, sp := range j.slots {
		if rm := sp.roundsMarks[sp.Round]; rm != nil && sp.Round > 0 {
			sp.Coord, sp.EstLast, sp.Prop = rm.coord, rm.estLast, rm.prop
		}
	}
	return j
}

// decided returns the slots whose decide broadcast was logged, in slot order.
func (j *logJoin) decided() []*slotSpan {
	out := make([]*slotSpan, 0, len(j.slots))
	for _, sp := range j.slots {
		if sp.Decide != noTime {
			out = append(out, sp)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Slot < out[b].Slot })
	return out
}

// span returns to−from in milliseconds, ok=false if either end is missing or
// they are out of order (a phase the deciding round skipped).
func span(from, to time.Duration) (float64, bool) {
	if from == noTime || to == noTime || to < from {
		return 0, false
	}
	return msOf(float64(to - from)), true
}

// cecLayer fills the cec.* and rbcast.msgs_per_slot metrics from the join.
// applyAt gives, per slot, when the slot was first applied (same clock as the
// log), for rbcast.decide_to_apply_ms; it may be nil.
func (j *logJoin) cecLayer(m map[string]float64, applyAt map[int]time.Duration) {
	var p0, p12, p34, d2a []float64
	var cecMsgs, rbMsgs, rounds, nacks, probes int
	dec := j.decided()
	for _, sp := range dec {
		if v, ok := span(sp.Coord, sp.EstLast); ok {
			p0 = append(p0, v)
		}
		if v, ok := span(sp.EstLast, sp.Prop); ok {
			p12 = append(p12, v)
		}
		if v, ok := span(sp.Prop, sp.Decide); ok {
			p34 = append(p34, v)
		}
		if at, ok := applyAt[sp.Slot]; ok {
			if v, ok := span(sp.Decide, at); ok {
				d2a = append(d2a, v)
			}
		}
		cecMsgs += sp.CecMsgs
		rbMsgs += sp.RbMsgs
		rounds += sp.Round
	}
	for _, sp := range j.slots {
		nacks += sp.Nacks
		probes += sp.Probes
	}
	med := func(vs []float64) float64 {
		if len(vs) == 0 {
			return 0
		}
		return median(vs)
	}
	m["cec.phase0_ms"] = med(p0)
	m["cec.phase12_ms"] = med(p12)
	m["cec.phase34_ms"] = med(p34)
	m["rbcast.decide_to_apply_ms"] = med(d2a)
	m["cec.nacks"] = float64(nacks)
	m["cec.probes"] = float64(probes)
	if n := float64(len(dec)); n > 0 {
		m["cec.msgs_per_slot"] = float64(cecMsgs) / n
		m["rbcast.msgs_per_slot"] = float64(rbMsgs) / n
		m["cec.rounds_per_decide"] = float64(rounds) / n
	}
	m["core.fetches"] = float64(j.fetches)
}

// slotLayers fills the metrics that join the message log with the Apply
// stamps: commands per slot, the cec and rbcast spans, and the lag from a
// slot's apply at the origin of its first command to its apply at the last
// surviving replica. ref is the agreed log; slotApply[i] holds when process
// i+1 first applied each slot, on the log's clock.
func (j *logJoin) slotLayers(m map[string]float64, ref []core.AppliedEntry, slotApply []map[int]time.Duration, crashed dsys.ProcessID) {
	slotOrigin := map[int]dsys.ProcessID{}
	for _, e := range ref {
		if _, seen := slotOrigin[e.Slot]; !seen {
			slotOrigin[e.Slot] = e.Cmd.Origin
		}
	}
	if n := len(slotOrigin); n > 0 {
		m["core.cmds_per_slot"] = float64(len(ref)) / float64(n)
	}
	originApply := map[int]time.Duration{}
	var lag []float64
	for s, origin := range slotOrigin {
		if origin == crashed {
			continue
		}
		at, ok := slotApply[origin-1][s]
		if !ok {
			continue
		}
		originApply[s] = at
		last := at
		for i, stamps := range slotApply {
			if dsys.ProcessID(i+1) == crashed {
				continue
			}
			if t, ok := stamps[s]; ok && t > last {
				last = t
			}
		}
		lag = append(lag, msOf(float64(last-at)))
	}
	j.cecLayer(m, originApply)
	if len(lag) > 0 {
		m["core.apply_lag_ms"] = median(lag)
	}
}
