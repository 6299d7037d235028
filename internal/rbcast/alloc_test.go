package rbcast

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/dsys"
)

// deafProc is the least a module needs of its process: an identity, the
// process list, and a Send that goes nowhere.
type deafProc struct {
	id  dsys.ProcessID
	all []dsys.ProcessID
}

func (p deafProc) ID() dsys.ProcessID                      { return p.id }
func (p deafProc) N() int                                  { return len(p.all) }
func (p deafProc) All() []dsys.ProcessID                   { return p.all }
func (p deafProc) Now() time.Duration                      { return 1 }
func (p deafProc) Rand() *rand.Rand                        { return nil }
func (p deafProc) Send(dsys.ProcessID, string, any)        {}
func (p deafProc) Recv(dsys.Matcher) (*dsys.Message, bool) { return nil, false }
func (p deafProc) RecvTimeout(dsys.Matcher, time.Duration) (*dsys.Message, bool) {
	return nil, false
}
func (p deafProc) Sleep(time.Duration)         {}
func (p deafProc) Spawn(string, dsys.TaskFunc) {}
func (p deafProc) Logf(string, ...any)         {}

// TestDeliveryAllocatesNothing: with an unchanged handler set, receiving,
// relaying and R-delivering one broadcast allocates nothing — the handlers
// are read as one slice, not collected, sorted and copied per delivery — and
// handlers run in registration order whatever was cancelled in between.
func TestDeliveryAllocatesNothing(t *testing.T) {
	var p dsys.Proc = deafProc{id: 1, all: dsys.Pids(3)}
	m := Start(p)
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		cancel := m.OnDeliver(func(dsys.Proc, dsys.ProcessID, any) { order = append(order, i) })
		if i == 1 {
			cancel()
			cancel() // idempotent
		}
	}
	var payload any = "decision"
	seq := 0
	deliver := func() {
		seq++
		m.receive(p, &dsys.Message{From: 2, To: 1, Kind: Kind, Payload: Wire{Origin: 2, Inc: 7, Seq: seq, Payload: payload}})
	}
	deliver()
	if len(order) != 3 || order[0] != 0 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("handlers ran as %v, want [0 2 3]", order)
	}
	// Room for the measured runs, so the slice does not grow inside them. The
	// dedup set of an in-order source extends one run in place.
	order = make([]int, 0, 4096)
	for i := 0; i < 2048; i++ {
		deliver()
	}
	order = order[:0]
	msg := &dsys.Message{From: 2, To: 1, Kind: Kind}
	var boxed [512]any
	for i := range boxed {
		seq++
		boxed[i] = Wire{Origin: 2, Inc: 7, Seq: seq, Payload: payload}
	}
	i := 0
	if avg := testing.AllocsPerRun(500, func() {
		msg.Payload = boxed[i]
		i++
		m.receive(p, msg)
	}); avg != 0 {
		t.Errorf("one delivery allocates %v times, want 0", avg)
	}
}
