package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/dsys"
	"repro/internal/network"
	"repro/internal/trace"
)

func reliableCfg(n int, seed int64) Config {
	return Config{
		N:       n,
		Network: network.Reliable{Latency: network.Fixed(time.Millisecond)},
		Seed:    seed,
	}
}

func TestPingPong(t *testing.T) {
	k := New(reliableCfg(2, 1))
	var got []string
	k.Spawn(1, "pinger", func(p dsys.Proc) {
		for i := 0; i < 3; i++ {
			p.Send(2, "ping", i)
			m, ok := p.Recv(dsys.MatchKind("pong"))
			if !ok {
				t.Error("pinger unwound unexpectedly")
				return
			}
			got = append(got, fmt.Sprintf("pong%d@%v", m.Payload.(int), p.Now()))
		}
	})
	k.Spawn(2, "ponger", func(p dsys.Proc) {
		for {
			m, _ := p.Recv(dsys.MatchKind("ping"))
			p.Send(m.From, "pong", m.Payload)
		}
	})
	k.Run(time.Second)
	want := []string{"pong0@2ms", "pong1@4ms", "pong2@6ms"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestSleepAdvancesVirtualTime(t *testing.T) {
	k := New(reliableCfg(1, 1))
	var at []time.Duration
	k.Spawn(1, "sleeper", func(p dsys.Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(10 * time.Millisecond)
			at = append(at, p.Now())
		}
	})
	end := k.Run(time.Second)
	if len(at) != 5 || at[4] != 50*time.Millisecond {
		t.Fatalf("wake times %v", at)
	}
	// Quiescence: the run ends when nothing remains, not at the deadline.
	if end != 50*time.Millisecond {
		t.Errorf("end = %v, want 50ms", end)
	}
}

func TestRecvTimeout(t *testing.T) {
	k := New(reliableCfg(2, 1))
	var timedOut, received bool
	k.Spawn(1, "waiter", func(p dsys.Proc) {
		if _, ok := p.RecvTimeout(dsys.MatchKind("never"), 5*time.Millisecond); !ok {
			timedOut = true
		}
		if p.Now() != 5*time.Millisecond {
			t.Errorf("timeout fired at %v, want 5ms", p.Now())
		}
		if m, ok := p.RecvTimeout(dsys.MatchKind("hello"), time.Second); ok {
			received = true
			if m.From != 2 {
				t.Errorf("from %v", m.From)
			}
		}
	})
	k.Spawn(2, "sender", func(p dsys.Proc) {
		p.Sleep(20 * time.Millisecond)
		p.Send(1, "hello", nil)
	})
	k.Run(time.Second)
	if !timedOut || !received {
		t.Errorf("timedOut=%v received=%v", timedOut, received)
	}
}

func TestRecvTimeoutStaleTimerDoesNotWakeLaterPark(t *testing.T) {
	k := New(reliableCfg(2, 1))
	wakes := 0
	k.Spawn(1, "waiter", func(p dsys.Proc) {
		// First wait is satisfied by a message well before its long timeout.
		if _, ok := p.RecvTimeout(dsys.MatchKind("a"), 100*time.Millisecond); !ok {
			t.Error("expected message a")
		}
		// Second wait must time out at its own deadline, not at the stale one.
		start := p.Now()
		if _, ok := p.RecvTimeout(dsys.MatchKind("b"), 300*time.Millisecond); ok {
			t.Error("unexpected message b")
		}
		if p.Now()-start != 300*time.Millisecond {
			t.Errorf("second wait lasted %v, want 300ms", p.Now()-start)
		}
		wakes++
	})
	k.Spawn(2, "sender", func(p dsys.Proc) {
		p.Send(1, "a", nil)
	})
	k.Run(time.Second)
	if wakes != 1 {
		t.Errorf("wakes = %d", wakes)
	}
}

func TestBufferedMessageMatchedLater(t *testing.T) {
	k := New(reliableCfg(2, 1))
	order := []string{}
	k.Spawn(2, "sender", func(p dsys.Proc) {
		p.Send(1, "second", nil)
		p.Send(1, "first", nil)
	})
	k.Spawn(1, "recv", func(p dsys.Proc) {
		p.Sleep(50 * time.Millisecond) // both messages get buffered
		m1, _ := p.Recv(dsys.MatchKind("first"))
		order = append(order, m1.Kind)
		m2, _ := p.Recv(dsys.MatchKind("second"))
		order = append(order, m2.Kind)
	})
	k.Run(time.Second)
	if strings.Join(order, ",") != "first,second" {
		t.Errorf("order %v", order)
	}
}

func TestSelfSendDelivers(t *testing.T) {
	k := New(reliableCfg(1, 1))
	ok := false
	k.Spawn(1, "self", func(p dsys.Proc) {
		p.Send(1, "note", 42)
		m, _ := p.Recv(dsys.MatchKind("note"))
		ok = m.Payload.(int) == 42 && m.From == 1
	})
	k.Run(time.Second)
	if !ok {
		t.Error("self send not delivered")
	}
}

func TestCrashUnwindsTasksAndSilencesProcess(t *testing.T) {
	col := trace.NewCollector()
	cfg := reliableCfg(2, 1)
	cfg.Trace = col
	k := New(cfg)
	deferRan := false
	k.Spawn(1, "chatty", func(p dsys.Proc) {
		defer func() { deferRan = true }()
		for {
			p.Send(2, "beat", nil)
			p.Sleep(10 * time.Millisecond)
		}
	})
	var beats int
	k.Spawn(2, "count", func(p dsys.Proc) {
		for {
			if _, ok := p.Recv(dsys.MatchKind("beat")); ok {
				beats++
			}
		}
	})
	k.CrashAt(1, 35*time.Millisecond)
	k.Run(200 * time.Millisecond)
	if !deferRan {
		t.Error("crashed task's defers did not run")
	}
	if beats != 4 { // sends at 0,10,20,30ms
		t.Errorf("beats = %d, want 4", beats)
	}
	if !k.Crashed(1) || k.Crashed(2) {
		t.Error("crash flags wrong")
	}
	if at, ok := col.CrashTime(1); !ok || at != 35*time.Millisecond {
		t.Errorf("crash time %v %v", at, ok)
	}
}

func TestMessagesToCrashedProcessDiscarded(t *testing.T) {
	col := trace.NewCollector()
	cfg := reliableCfg(2, 1)
	cfg.Trace = col
	k := New(cfg)
	k.Spawn(1, "sender", func(p dsys.Proc) {
		p.Sleep(20 * time.Millisecond)
		p.Send(2, "late", nil)
	})
	k.Spawn(2, "idle", func(p dsys.Proc) {
		p.Recv(dsys.MatchAny)
	})
	k.CrashAt(2, 10*time.Millisecond)
	k.Run(100 * time.Millisecond)
	if col.Sent("late") != 1 {
		t.Errorf("sent = %d", col.Sent("late"))
	}
	if col.Delivered("late") != 0 {
		t.Errorf("delivered = %d", col.Delivered("late"))
	}
}

func TestSpawnedTasksShareMailbox(t *testing.T) {
	k := New(reliableCfg(2, 1))
	var gotA, gotB string
	k.Spawn(1, "main", func(p dsys.Proc) {
		p.Spawn("taskA", func(p dsys.Proc) {
			m, _ := p.Recv(dsys.MatchKind("a"))
			gotA = m.Kind
		})
		p.Spawn("taskB", func(p dsys.Proc) {
			m, _ := p.Recv(dsys.MatchKind("b"))
			gotB = m.Kind
		})
	})
	k.Spawn(2, "sender", func(p dsys.Proc) {
		p.Send(1, "b", nil)
		p.Send(1, "a", nil)
	})
	k.Run(time.Second)
	if gotA != "a" || gotB != "b" {
		t.Errorf("gotA=%q gotB=%q", gotA, gotB)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() string {
		col := trace.NewCollector()
		cfg := Config{
			N:       4,
			Network: network.Reliable{Latency: network.Uniform{Min: time.Millisecond, Max: 20 * time.Millisecond}},
			Seed:    42,
			Trace:   col,
		}
		k := New(cfg)
		for _, id := range dsys.Pids(4) {
			k.Spawn(id, "gossip", func(p dsys.Proc) {
				for i := 0; i < 20; i++ {
					to := dsys.ProcessID(p.Rand().Intn(p.N()) + 1)
					p.Send(to, "g", i)
					p.Sleep(time.Duration(p.Rand().Intn(5)+1) * time.Millisecond)
				}
			})
			k.Spawn(id, "sink", func(p dsys.Proc) {
				for {
					p.Recv(dsys.MatchKind("g"))
				}
			})
		}
		k.CrashAt(3, 40*time.Millisecond)
		k.Run(500 * time.Millisecond)
		return fmt.Sprint(col.Events())
	}
	a, b := run(), run()
	if a != b {
		t.Error("two runs with the same seed diverged")
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	run := func(seed int64) string {
		col := trace.NewCollector()
		cfg := Config{
			N:       3,
			Network: network.Reliable{Latency: network.Uniform{Min: time.Millisecond, Max: 50 * time.Millisecond}},
			Seed:    seed,
			Trace:   col,
		}
		k := New(cfg)
		k.Spawn(1, "s", func(p dsys.Proc) {
			for i := 0; i < 10; i++ {
				p.Send(2, "m", i)
				p.Recv(dsys.MatchKind("ack")) // send times now depend on latencies
			}
		})
		k.Spawn(2, "r", func(p dsys.Proc) {
			for {
				m, _ := p.Recv(dsys.MatchKind("m"))
				p.Send(m.From, "ack", nil)
			}
		})
		k.Run(time.Second)
		return fmt.Sprint(col.Events())
	}
	if run(1) == run(2) {
		t.Error("different seeds produced identical latency schedules (suspicious)")
	}
}

func TestRunStopsAtDeadline(t *testing.T) {
	k := New(reliableCfg(1, 1))
	ticks := 0
	k.Spawn(1, "ticker", func(p dsys.Proc) {
		for {
			p.Sleep(time.Millisecond)
			ticks++
		}
	})
	end := k.Run(10 * time.Millisecond)
	if end != 10*time.Millisecond {
		t.Errorf("end = %v", end)
	}
	if ticks != 10 {
		t.Errorf("ticks = %d, want 10", ticks)
	}
}

func TestTaskPanicSurfacesWithContext(t *testing.T) {
	k := New(reliableCfg(1, 1))
	k.Spawn(1, "boom", func(p dsys.Proc) {
		p.Sleep(time.Millisecond)
		panic("kaboom")
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic")
		}
		msg := fmt.Sprint(r)
		if !strings.Contains(msg, "kaboom") || !strings.Contains(msg, "p1/boom") {
			t.Errorf("panic message %q lacks context", msg)
		}
	}()
	k.Run(time.Second)
}

func TestScheduleFuncAndEvery(t *testing.T) {
	k := New(reliableCfg(1, 1))
	k.Spawn(1, "idle", func(p dsys.Proc) { p.Sleep(time.Hour) })
	var funcAt time.Duration
	k.ScheduleFunc(7*time.Millisecond, func(now time.Duration) { funcAt = now })
	var everyAt []time.Duration
	k.Every(5*time.Millisecond, 10*time.Millisecond, func(now time.Duration) {
		everyAt = append(everyAt, now)
	})
	k.Run(40 * time.Millisecond)
	if funcAt != 7*time.Millisecond {
		t.Errorf("funcAt = %v", funcAt)
	}
	want := []time.Duration{5 * time.Millisecond, 15 * time.Millisecond, 25 * time.Millisecond, 35 * time.Millisecond}
	if fmt.Sprint(everyAt) != fmt.Sprint(want) {
		t.Errorf("everyAt = %v, want %v", everyAt, want)
	}
}

func TestCorrectReflectsCrashes(t *testing.T) {
	k := New(reliableCfg(3, 1))
	k.Spawn(1, "idle", func(p dsys.Proc) { p.Sleep(time.Hour) })
	k.CrashAt(2, time.Millisecond)
	k.Run(10 * time.Millisecond)
	got := fmt.Sprint(k.Correct())
	if got != "[p1 p3]" {
		t.Errorf("Correct() = %v", got)
	}
}

func TestZeroAndNegativeSleepStillYields(t *testing.T) {
	k := New(reliableCfg(1, 1))
	n := 0
	k.Spawn(1, "spin", func(p dsys.Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(0)
			n++
		}
	})
	end := k.Run(time.Second)
	if n != 100 {
		t.Errorf("n = %d", n)
	}
	if end == 0 {
		t.Error("virtual time did not advance at all")
	}
}

func TestRecvTimeoutZeroReturnsImmediately(t *testing.T) {
	k := New(reliableCfg(1, 1))
	called := false
	k.Spawn(1, "t", func(p dsys.Proc) {
		if _, ok := p.RecvTimeout(dsys.MatchAny, 0); ok {
			t.Error("expected no message")
		}
		called = true
	})
	k.Run(time.Second)
	if !called {
		t.Error("task did not complete")
	}
}

func TestPartiallySynchronousNetworkBoundsPostGST(t *testing.T) {
	gst := 100 * time.Millisecond
	delta := 10 * time.Millisecond
	cfg := Config{
		N:       2,
		Network: network.PartiallySynchronous{GST: gst, Delta: delta},
		Seed:    7,
		Trace:   trace.NewCollector(),
	}
	k := New(cfg)
	var lat []time.Duration
	k.Spawn(1, "s", func(p dsys.Proc) {
		for i := 0; i < 100; i++ {
			p.Send(2, "m", p.Now())
			p.Sleep(5 * time.Millisecond)
		}
	})
	k.Spawn(2, "r", func(p dsys.Proc) {
		for {
			m, _ := p.Recv(dsys.MatchAny)
			lat = append(lat, p.Now()-m.SentAt)
			if m.SentAt >= gst && p.Now()-m.SentAt > delta {
				t.Errorf("post-GST message took %v > Δ=%v", p.Now()-m.SentAt, delta)
			}
			if m.SentAt < gst && p.Now() > gst+delta {
				t.Errorf("pre-GST message arrived at %v, after GST+Δ", p.Now())
			}
		}
	})
	k.Run(time.Second)
	if len(lat) != 100 {
		t.Errorf("delivered %d of 100", len(lat))
	}
}
