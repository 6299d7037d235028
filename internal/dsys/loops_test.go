package dsys

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// call is one blocking primitive a fakeProc was asked for.
type call struct {
	prim  string
	match Matcher
	d     time.Duration
}

// fakeProc records the blocking primitives RunSteps calls and answers each
// receive with the next message of replies (nil: the receive timed out or
// found nothing).
type fakeProc struct {
	calls   []call
	replies []*Message
}

func (f *fakeProc) ID() ProcessID                       { return 1 }
func (f *fakeProc) N() int                              { return 1 }
func (f *fakeProc) All() []ProcessID                    { return []ProcessID{1} }
func (f *fakeProc) Now() time.Duration                  { return 0 }
func (f *fakeProc) Rand() *rand.Rand                    { return nil }
func (f *fakeProc) Send(ProcessID, string, any)         {}
func (f *fakeProc) Spawn(string, TaskFunc)              {}
func (f *fakeProc) Logf(string, ...any)                 {}
func (f *fakeProc) Sleep(d time.Duration)               { f.calls = append(f.calls, call{"Sleep", nil, d}) }
func (f *fakeProc) Recv(match Matcher) (*Message, bool) { return f.reply(call{"Recv", match, 0}) }
func (f *fakeProc) RecvTimeout(match Matcher, d time.Duration) (*Message, bool) {
	return f.reply(call{"RecvTimeout", match, d})
}

func (f *fakeProc) reply(c call) (*Message, bool) {
	f.calls = append(f.calls, c)
	m := f.replies[0]
	f.replies = f.replies[1:]
	return m, m != nil
}

// sameMatcher reports whether a and b are the same matcher: both nil, the
// same interned kind matcher, or the same predicate function.
func sameMatcher(a, b Matcher) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	fa, aok := a.(MatchFunc)
	fb, bok := b.(MatchFunc)
	if aok || bok {
		return aok && bok && reflect.ValueOf(fa).Pointer() == reflect.ValueOf(fb).Pointer()
	}
	return a == b
}

// TestRunStepsExpansion drives RunSteps, the blocking expansion the live
// runtime runs every step task through, over a recording fake Proc: each
// Wait shape must become exactly one primitive call with the Wait's own
// arguments, and the step after it must be handed exactly the message that
// call returned — nil after a timeout or a sleep. Each row's wait follows a
// first wait that received a message, so a stale message cannot pass for
// the right one. Finished must end the run with no call at all.
func TestRunStepsExpansion(t *testing.T) {
	kind := MatchKind("runsteps.k")
	pred := MatchFunc(func(m *Message) bool { return m.Kind == "runsteps.p" })
	msg := func(kind string) *Message { return &Message{From: 1, To: 1, Kind: kind} }
	rows := []struct {
		name  string
		wait  Wait
		reply *Message // what the receive returns; unused by a sleep
		want  call
	}{
		{"await-kind", Await(kind), msg("runsteps.k"), call{"Recv", kind, 0}},
		{"await-predicate", Await(pred), msg("runsteps.p"), call{"Recv", pred, 0}},
		{"await-timeout-message", AwaitTimeout(kind, 5*time.Millisecond), msg("runsteps.k"), call{"RecvTimeout", kind, 5 * time.Millisecond}},
		{"await-timeout-expired", AwaitTimeout(pred, 5*time.Millisecond), nil, call{"RecvTimeout", pred, 5 * time.Millisecond}},
		{"await-timeout-zero", AwaitTimeout(kind, 0), nil, call{"RecvTimeout", kind, 0}},
		{"await-timeout-negative", AwaitTimeout(pred, -time.Second), msg("runsteps.p"), call{"RecvTimeout", pred, -time.Second}},
		{"sleep", Sleep(3 * time.Millisecond), nil, call{"Sleep", nil, 3 * time.Millisecond}},
		{"sleep-zero", Sleep(0), nil, call{"Sleep", nil, 0}},
		{"sleep-negative", Sleep(-time.Second), nil, call{"Sleep", nil, -time.Second}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			first := msg("runsteps.first")
			f := &fakeProc{replies: []*Message{first, row.reply}}
			var handed []*Message
			RunSteps(f, func(p Proc, m *Message) Wait {
				if p != f {
					t.Errorf("step %d got another Proc", len(handed))
				}
				handed = append(handed, m)
				switch len(handed) {
				case 1:
					return Await(kind)
				case 2:
					return row.wait
				}
				return Finished
			})
			if len(f.calls) != 2 {
				t.Fatalf("RunSteps made primitive calls %v, want two", f.calls)
			}
			got := f.calls[1]
			if got.prim != row.want.prim || got.d != row.want.d || !sameMatcher(got.match, row.want.match) {
				t.Errorf("RunSteps called %s(%v, %v), want %s(%v, %v)", got.prim, got.match, got.d, row.want.prim, row.want.match, row.want.d)
			}
			want := row.reply
			if row.want.prim == "Sleep" {
				want = nil
			}
			if len(handed) != 3 || handed[0] != nil || handed[1] != first || handed[2] != want {
				t.Errorf("steps were handed %v, want [<nil> %v %v]", handed, first, want)
			}
		})
	}
	t.Run("finished", func(t *testing.T) {
		f := &fakeProc{}
		steps := 0
		RunSteps(f, func(Proc, *Message) Wait {
			steps++
			return Finished
		})
		if steps != 1 || len(f.calls) != 0 {
			t.Errorf("Finished first: %d steps and primitive calls %v, want one step and none", steps, f.calls)
		}
	})
}
