package cec

import (
	"reflect"
	"testing"

	"repro/internal/consensus"
	"repro/internal/dsys"
)

// recordingProc is a Proc that only records sends; takePending needs nothing
// else of its process.
type recordingProc struct {
	dsys.Proc
	id   dsys.ProcessID
	sent []nullEst
}

// nullEst is one recorded estimate: its destination and round.
type nullEst struct {
	to    dsys.ProcessID
	round int
}

func (p *recordingProc) ID() dsys.ProcessID { return p.id }

func (p *recordingProc) Send(to dsys.ProcessID, kind string, payload any) {
	env := payload.(consensus.Msg)
	if kind != KindEst || !env.Null {
		panic("takePending sent something other than a null estimate")
	}
	p.sent = append(p.sent, nullEst{to, env.Round})
}

// TestTakePendingSendsInRoundOrder: with announcements pending for several
// rounds, takePending adopts the first announcer of the highest round and
// answers every other announcer with a null estimate in ascending round order
// — the order must not follow map iteration, or the network draws tied to the
// sends (and so the whole run) vary from one execution to the next.
func TestTakePendingSendsInRoundOrder(t *testing.T) {
	want := []nullEst{{2, 1}, {3, 2}, {5, 4}}
	for i := range 200 {
		rp := &recordingProc{id: 1}
		st := &Proposal{
			Instance: consensus.Instance{P: rp, Self: 1, N: 5, R: 1},
			rounds:   map[int]*round{},
			pending:  map[int][]dsys.ProcessID{1: {2}, 2: {3}, 4: {4, 5}},
		}
		if c := st.takePending(); c != 4 || st.R != 4 || st.round(4).coord != 4 {
			t.Fatalf("run %d: adopted %v at round %d (round 4's coordinator %v), want p4 at round 4", i, c, st.R, st.round(4).coord)
		}
		if !reflect.DeepEqual(rp.sent, want) {
			t.Fatalf("run %d: null estimates went to %v, want %v", i, rp.sent, want)
		}
		if len(st.pending) != 0 {
			t.Fatalf("run %d: announcements left pending: %v", i, st.pending)
		}
	}
}
