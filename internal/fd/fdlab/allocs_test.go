package fdlab_test

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/dsys"
	"repro/internal/fd"
	"repro/internal/fd/fdtest"
	"repro/internal/fd/heartbeat"
	"repro/internal/fd/ring"
	"repro/internal/fd/transform"
)

// stepProc is a dsys.Proc with no runtime behind it: as a dsys.LoopSpawner it
// takes the first step of each step task a detector declares (a tick loop's
// Setup and, if Immediate, its first tick) and records the step function,
// so a test can call the steps one by one at times of its choosing, and its
// Send only counts. Nothing in it allocates, so testing.AllocsPerRun over a
// step measures the detector and the loop's step wrapper.
type stepProc struct {
	id    dsys.ProcessID
	all   []dsys.ProcessID
	now   time.Duration
	sent  int
	steps map[string]dsys.StepFunc
	msg   dsys.Message // the one envelope deliver reuses
}

var (
	_ dsys.Proc        = (*stepProc)(nil)
	_ dsys.LoopSpawner = (*stepProc)(nil)
)

func newStepProc(id dsys.ProcessID, n int) *stepProc {
	return &stepProc{id: id, all: dsys.Pids(n), steps: map[string]dsys.StepFunc{}}
}

func (p *stepProc) ID() dsys.ProcessID                      { return p.id }
func (p *stepProc) N() int                                  { return len(p.all) }
func (p *stepProc) All() []dsys.ProcessID                   { return p.all }
func (p *stepProc) Now() time.Duration                      { return p.now }
func (p *stepProc) Rand() *rand.Rand                        { panic("stepProc: no randomness") }
func (p *stepProc) Send(dsys.ProcessID, string, any)        { p.sent++ }
func (p *stepProc) Sleep(time.Duration)                     { panic("stepProc: steps do not block") }
func (p *stepProc) Spawn(string, dsys.TaskFunc)             { panic("stepProc: step tasks only") }
func (p *stepProc) Logf(string, ...any)                     {}
func (p *stepProc) Recv(dsys.Matcher) (*dsys.Message, bool) { panic("stepProc: steps do not block") }
func (p *stepProc) RecvTimeout(dsys.Matcher, time.Duration) (*dsys.Message, bool) {
	panic("stepProc: steps do not block")
}

func (p *stepProc) SpawnStep(name string, step dsys.StepFunc) {
	step(p, nil)
	p.steps[name] = step
}

// tick resumes the named tick loop after its sleep: one tick.
func (p *stepProc) tick(loop string) { p.steps[loop](p, nil) }

// deliver hands one message to the named receive loop.
func (p *stepProc) deliver(loop string, from dsys.ProcessID, kind string, payload any) {
	p.msg = dsys.Message{From: from, To: p.id, Kind: kind, Payload: payload, SentAt: p.now}
	p.steps[loop](p, &p.msg)
}

// TestSteadyStateStepsAllocateNothing runs each detector's periodic and
// receive steps in the state a population spends its life in — a crashed
// process suspected, the suspect set no longer changing — and requires zero
// allocations per period: no map or sorted slice built per beat, no fresh
// Members() per send, no set rebuilt on adopting the list already held.
func TestSteadyStateStepsAllocateNothing(t *testing.T) {
	const n, crashed = 8, dsys.ProcessID(5)
	period := 10 * time.Millisecond
	suspects := any([]dsys.ProcessID{crashed}) // boxed once, as a received payload is
	wantOnly := func(t *testing.T, s fd.Set) {
		t.Helper()
		if !s.Equal(fd.NewSet(crashed)) {
			t.Fatalf("suspect set %v, want {%v}", s, crashed)
		}
	}
	zero := func(t *testing.T, what string, step func()) {
		t.Helper()
		if got := testing.AllocsPerRun(200, step); got != 0 {
			t.Errorf("%s: %v allocations per period, want 0", what, got)
		}
	}

	t.Run("ring", func(t *testing.T) {
		p := newStepProc(3, n)
		d := ring.Start(p, ring.Options{Period: period})
		onePeriod := func() {
			p.now += period / 2
			p.tick("ring-check")
			p.now += period / 2
			p.deliver("ring-recv", 2, ring.KindBeat, suspects)
			p.deliver("ring-recv", 4, ring.KindWatch, nil)
			p.tick("ring-check")
			p.tick("ring-beat")
		}
		onePeriod()
		wantOnly(t, d.Suspected())
		before := p.sent
		zero(t, "ring beat+recv+check", onePeriod)
		if p.sent == before {
			t.Error("the measured periods sent no beat")
		}
		wantOnly(t, d.Suspected())
	})

	for _, policy := range []heartbeat.TimeoutPolicy{heartbeat.PolicyAdditive, heartbeat.PolicyJacobson} {
		name := map[heartbeat.TimeoutPolicy]string{heartbeat.PolicyAdditive: "additive", heartbeat.PolicyJacobson: "jacobson"}[policy]
		t.Run("heartbeat-"+name, func(t *testing.T) {
			p := newStepProc(1, n)
			d := heartbeat.Start(p, heartbeat.Options{Period: period, Policy: policy})
			onePeriod := func() {
				p.now += period / 2
				p.tick("hb-check")
				p.now += period / 2
				for _, q := range p.all {
					if q != p.id && q != crashed {
						p.deliver("hb-recv", q, heartbeat.KindAlive, nil)
					}
				}
				p.tick("hb-check")
				p.tick("hb-send")
			}
			for i := 0; i < 5; i++ { // past the initial timeout: p5 is suspected
				onePeriod()
			}
			wantOnly(t, d.Suspected())
			zero(t, "heartbeat send+recv+check", onePeriod)
			wantOnly(t, d.Suspected())
		})
	}

	t.Run("transform-leader", func(t *testing.T) {
		p := newStepProc(1, n)
		d := transform.Start(p, fdtest.NewScripted(1), transform.Options{Period: period})
		onePeriod := func() {
			p.now += period / 2
			p.tick("tp-task34")
			p.now += period / 2
			for _, q := range p.all {
				if q != p.id && q != crashed {
					p.deliver("tp-task4", q, transform.KindAlive, nil)
				}
			}
			p.tick("tp-task34")
			p.tick("tp-task2")
			p.tick("tp-task1")
		}
		for i := 0; i < 5; i++ {
			onePeriod()
		}
		wantOnly(t, d.Suspected())
		before := p.sent
		zero(t, "transform tasks 1-4 at the leader", onePeriod)
		if p.sent == before {
			t.Error("the measured periods sent no list")
		}
		wantOnly(t, d.Suspected())
	})

	t.Run("transform-follower", func(t *testing.T) {
		p := newStepProc(2, n)
		d := transform.Start(p, fdtest.NewScripted(1), transform.Options{Period: period})
		onePeriod := func() {
			p.now += period / 2
			p.tick("tp-task34")
			p.now += period / 2
			p.deliver("tp-task5", 1, transform.KindList, suspects)
			p.tick("tp-task34")
			p.tick("tp-task2")
			p.tick("tp-task1")
		}
		onePeriod()
		wantOnly(t, d.Suspected())
		before := p.sent
		zero(t, "transform tasks 1-5 at a follower", onePeriod)
		if p.sent == before {
			t.Error("the measured periods sent no I-AM-ALIVE")
		}
		if d.Adoptions() < 200 {
			t.Errorf("%d adoptions, want one per period", d.Adoptions())
		}
		wantOnly(t, d.Suspected())
	})
}
