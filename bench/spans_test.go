package main

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/consensus/cec"
	"repro/internal/core"
	"repro/internal/dsys"
	"repro/internal/rbcast"
	"repro/internal/trace"
)

const ms = time.Millisecond

func cecEv(at time.Duration, from, to dsys.ProcessID, kind string, slot, round int, null bool) trace.MsgEvent {
	return trace.MsgEvent{At: at, From: from, To: to, Kind: kind,
		Payload: consensus.Msg{Inst: "/log/" + itoa(slot), Round: round, Null: null}}
}

func decideEv(at time.Duration, from, to dsys.ProcessID, slot, round int) trace.MsgEvent {
	return trace.MsgEvent{At: at, From: from, To: to, Kind: rbcast.Kind,
		Payload: rbcast.Wire{Origin: from, Seq: slot, Payload: consensus.Decide{Inst: "/log/" + itoa(slot), Round: round}}}
}

func itoa(n int) string { return fmt.Sprintf("%d", n) }

func TestSlotOfInst(t *testing.T) {
	for inst, want := range map[string]int{
		"/log/1": 1, "ns/log/42": 42, "/log/0": 0, "/log/x": 0, "member/7": 0, "": 0,
	} {
		if got := slotOfInst(inst); got != want {
			t.Errorf("slotOfInst(%q) = %d, want %d", inst, got, want)
		}
	}
}

// A clean slot: p1 coordinates round 1 of slot 3 in a three-process system.
func cleanSlot() []trace.MsgEvent {
	return []trace.MsgEvent{
		{At: 0, From: 2, To: 1, Kind: core.KindKick, Payload: core.Kick{Slot: 3, Batch: core.Batch{Cmds: []core.Command{{Origin: 2, Seq: 9}, {Origin: 2, Seq: 10}}}}},
		{At: 0, From: 2, To: 3, Kind: core.KindKick, Payload: core.Kick{Slot: 3, Batch: core.Batch{Cmds: []core.Command{{Origin: 2, Seq: 9}, {Origin: 2, Seq: 10}}}}},
		cecEv(1*ms, 1, 2, cec.KindCoord, 3, 1, false),
		cecEv(1*ms, 1, 3, cec.KindCoord, 3, 1, false),
		cecEv(1*ms, 1, 1, cec.KindEst, 3, 1, false), // the coordinator's own estimate: local
		cecEv(2*ms, 2, 1, cec.KindEst, 3, 1, false),
		cecEv(3*ms, 3, 1, cec.KindEst, 3, 1, false),
		cecEv(5*ms, 1, 1, cec.KindProp, 3, 1, false),
		cecEv(5*ms, 1, 2, cec.KindProp, 3, 1, false),
		cecEv(5*ms, 1, 3, cec.KindProp, 3, 1, false),
		cecEv(6*ms, 2, 1, cec.KindAck, 3, 1, false),
		cecEv(6*ms, 3, 1, cec.KindAck, 3, 1, false),
		decideEv(9*ms, 1, 1, 3, 1),
		decideEv(9*ms, 1, 2, 3, 1),
		decideEv(9*ms, 1, 3, 3, 1),
		decideEv(10*ms, 2, 3, 3, 1), // relays
		decideEv(10*ms, 3, 2, 3, 1),
	}
}

func TestJoinCleanSlot(t *testing.T) {
	j := joinLog(cleanSlot())
	dec := j.decided()
	if len(dec) != 1 {
		t.Fatalf("decided slots = %d, want 1", len(dec))
	}
	sp := dec[0]
	if sp.Slot != 3 || sp.Round != 1 || sp.Rounds != 1 {
		t.Errorf("slot %d round %d rounds %d, want 3 1 1", sp.Slot, sp.Round, sp.Rounds)
	}
	if sp.Coord != 1*ms || sp.EstLast != 3*ms || sp.Prop != 5*ms || sp.Decide != 9*ms {
		t.Errorf("marks coord=%v est=%v prop=%v decide=%v, want 1ms 3ms 5ms 9ms", sp.Coord, sp.EstLast, sp.Prop, sp.Decide)
	}
	// Network sends only: 2 coord + 2 est + 2 prop + 2 ack; 4 of the 5 rb.msg.
	if sp.CecMsgs != 8 || sp.RbMsgs != 4 || sp.Nacks != 0 {
		t.Errorf("cec=%d rb=%d nacks=%d, want 8 4 0", sp.CecMsgs, sp.RbMsgs, sp.Nacks)
	}
	if at, ok := j.firstKick[cmdID{2, 10}]; !ok || at != 0 {
		t.Errorf("first kick of p2/10 = %v %v, want 0 true", at, ok)
	}
	m := map[string]float64{}
	j.cecLayer(m, map[int]time.Duration{3: 11 * ms})
	for k, want := range map[string]float64{
		"cec.phase0_ms": 2, "cec.phase12_ms": 2, "cec.phase34_ms": 4, "rbcast.decide_to_apply_ms": 2,
		"cec.msgs_per_slot": 8, "rbcast.msgs_per_slot": 4, "cec.rounds_per_decide": 1, "cec.nacks": 0, "cec.probes": 0,
	} {
		if !near(m[k], want) {
			t.Errorf("%s = %v, want %v", k, m[k], want)
		}
	}
}

// Slot 7's round 1 under p1 is nacked by p3 (it suspects p1) and dies with
// p1; p2 takes over and round 2 decides. The spans must come from round 2.
func TestJoinNackedRound(t *testing.T) {
	events := []trace.MsgEvent{
		cecEv(0, 1, 2, cec.KindCoord, 7, 1, false),
		cecEv(0, 1, 3, cec.KindCoord, 7, 1, false),
		cecEv(1*ms, 2, 1, cec.KindEst, 7, 1, false),
		cecEv(1200*time.Microsecond, 3, 1, cec.KindEst, 7, 1, false),
		cecEv(2*ms, 1, 2, cec.KindProp, 7, 1, false),
		cecEv(2*ms, 1, 3, cec.KindProp, 7, 1, false),
		cecEv(3*ms, 3, 1, cec.KindNack, 7, 1, false),
		// p1 crashes; p2 trusts itself, announces round 2.
		cecEv(70*ms, 2, 1, cec.KindCoord, 7, 2, false),
		cecEv(70*ms, 2, 3, cec.KindCoord, 7, 2, false),
		cecEv(71*ms, 3, 2, cec.KindEst, 7, 2, false),
		cecEv(72*ms, 2, 1, cec.KindProp, 7, 2, false),
		cecEv(72*ms, 2, 3, cec.KindProp, 7, 2, false),
		cecEv(73*ms, 3, 2, cec.KindAck, 7, 2, false),
		cecEv(73500*time.Microsecond, 3, 2, cec.KindProbe, 7, 2, false),
		decideEv(74*ms, 2, 1, 7, 2),
		decideEv(74*ms, 2, 3, 7, 2),
		// An undecided later slot must not count as decided.
		cecEv(80*ms, 2, 3, cec.KindCoord, 8, 1, false),
	}
	j := joinLog(events)
	dec := j.decided()
	if len(dec) != 1 || dec[0].Slot != 7 {
		t.Fatalf("decided = %v, want slot 7 only", dec)
	}
	sp := dec[0]
	if sp.Round != 2 || sp.Rounds != 2 || sp.Nacks != 1 || sp.Probes != 1 {
		t.Errorf("round %d rounds %d nacks %d probes %d, want 2 2 1 1", sp.Round, sp.Rounds, sp.Nacks, sp.Probes)
	}
	if sp.Coord != 70*ms || sp.EstLast != 71*ms || sp.Prop != 72*ms || sp.Decide != 74*ms {
		t.Errorf("marks coord=%v est=%v prop=%v decide=%v, want round 2's 70 71 72 74ms", sp.Coord, sp.EstLast, sp.Prop, sp.Decide)
	}
	m := map[string]float64{}
	j.cecLayer(m, nil)
	if !near(m["cec.phase0_ms"], 1) || !near(m["cec.phase12_ms"], 1) || !near(m["cec.phase34_ms"], 2) {
		t.Errorf("phases %v %v %v, want 1 1 2", m["cec.phase0_ms"], m["cec.phase12_ms"], m["cec.phase34_ms"])
	}
	if !near(m["cec.rounds_per_decide"], 2) || !near(m["cec.nacks"], 1) {
		t.Errorf("rounds_per_decide %v nacks %v, want 2 1", m["cec.rounds_per_decide"], m["cec.nacks"])
	}
}

// A null proposition and a null estimate are not phase boundaries.
func TestJoinIgnoresNulls(t *testing.T) {
	events := []trace.MsgEvent{
		cecEv(0, 1, 2, cec.KindCoord, 1, 1, false),
		cecEv(1*ms, 2, 1, cec.KindEst, 1, 1, true),
		cecEv(2*ms, 1, 2, cec.KindProp, 1, 1, true),
		decideEv(5*ms, 1, 2, 1, 1),
	}
	sp := joinLog(events).decided()[0]
	if sp.EstLast != noTime || sp.Prop != noTime {
		t.Errorf("null est/prop were taken as marks: est=%v prop=%v", sp.EstLast, sp.Prop)
	}
	if _, ok := span(sp.EstLast, sp.Prop); ok {
		t.Error("a span with a missing end must not be reported")
	}
}
