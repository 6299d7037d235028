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

// script is a step task that runs steps in order, one per resumption: each
// is handed the message that ended the previous step's wait (nil after a
// timeout or a sleep), and the task finishes after the last step's wait.
func script(steps ...dsys.StepFunc) dsys.StepFunc {
	next := 0
	return func(p dsys.Proc, m *dsys.Message) dsys.Wait {
		if next == len(steps) {
			return dsys.Finished
		}
		next++
		return steps[next-1](p, m)
	}
}

// sleep is the step that sleeps for d.
func sleep(d time.Duration) dsys.StepFunc {
	return func(dsys.Proc, *dsys.Message) dsys.Wait { return dsys.Sleep(d) }
}

// then is the last step of a script: it runs fn and finishes the task.
func then(fn func(p dsys.Proc, m *dsys.Message)) dsys.StepFunc {
	return func(p dsys.Proc, m *dsys.Message) dsys.Wait {
		fn(p, m)
		return dsys.Finished
	}
}

func TestPingPong(t *testing.T) {
	k := New(reliableCfg(2, 1))
	var got []string
	k.SpawnStep(1, "pinger", func(p dsys.Proc, m *dsys.Message) dsys.Wait {
		if m != nil {
			got = append(got, fmt.Sprintf("pong%d@%v", m.Payload.(int), p.Now()))
		}
		if len(got) == 3 {
			return dsys.Finished
		}
		p.Send(2, "ping", len(got))
		return dsys.Await(dsys.MatchKind("pong"))
	})
	k.SpawnRecvLoop(2, "ponger", func(p dsys.Proc, m *dsys.Message) {
		p.Send(m.From, "pong", m.Payload)
	}, "ping")
	k.Run(time.Second)
	want := []string{"pong0@2ms", "pong1@4ms", "pong2@6ms"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestSleepAdvancesVirtualTime(t *testing.T) {
	k := New(reliableCfg(1, 1))
	var at []time.Duration
	started := false
	k.SpawnStep(1, "sleeper", func(p dsys.Proc, _ *dsys.Message) dsys.Wait {
		if started {
			at = append(at, p.Now())
		}
		started = true
		if len(at) == 5 {
			return dsys.Finished
		}
		return dsys.Sleep(10 * time.Millisecond)
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
	k.SpawnStep(1, "waiter", script(
		func(dsys.Proc, *dsys.Message) dsys.Wait {
			return dsys.AwaitTimeout(dsys.MatchKind("never"), 5*time.Millisecond)
		},
		func(p dsys.Proc, m *dsys.Message) dsys.Wait {
			timedOut = m == nil
			if p.Now() != 5*time.Millisecond {
				t.Errorf("timeout fired at %v, want 5ms", p.Now())
			}
			return dsys.AwaitTimeout(dsys.MatchKind("hello"), time.Second)
		},
		then(func(p dsys.Proc, m *dsys.Message) {
			if m != nil {
				received = true
				if m.From != 2 {
					t.Errorf("from %v", m.From)
				}
			}
		}),
	))
	k.SpawnStep(2, "sender", script(
		sleep(20*time.Millisecond),
		then(func(p dsys.Proc, _ *dsys.Message) { p.Send(1, "hello", nil) }),
	))
	k.Run(time.Second)
	if !timedOut || !received {
		t.Errorf("timedOut=%v received=%v", timedOut, received)
	}
}

func TestRecvTimeoutStaleTimerDoesNotWakeLaterPark(t *testing.T) {
	k := New(reliableCfg(2, 1))
	wakes := 0
	var start time.Duration
	k.SpawnStep(1, "waiter", script(
		// The first wait is satisfied by a message well before its long
		// timeout.
		func(dsys.Proc, *dsys.Message) dsys.Wait {
			return dsys.AwaitTimeout(dsys.MatchKind("a"), 100*time.Millisecond)
		},
		// The second wait must time out at its own deadline, not at the
		// stale one.
		func(p dsys.Proc, m *dsys.Message) dsys.Wait {
			if m == nil {
				t.Error("expected message a")
			}
			start = p.Now()
			return dsys.AwaitTimeout(dsys.MatchKind("b"), 300*time.Millisecond)
		},
		then(func(p dsys.Proc, m *dsys.Message) {
			if m != nil {
				t.Error("unexpected message b")
			}
			if p.Now()-start != 300*time.Millisecond {
				t.Errorf("second wait lasted %v, want 300ms", p.Now()-start)
			}
			wakes++
		}),
	))
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
	record := func(_ dsys.Proc, m *dsys.Message) { order = append(order, m.Kind) }
	k.SpawnStep(1, "recv", script(
		sleep(50*time.Millisecond), // both messages get buffered
		func(dsys.Proc, *dsys.Message) dsys.Wait { return dsys.Await(dsys.MatchKind("first")) },
		func(p dsys.Proc, m *dsys.Message) dsys.Wait {
			record(p, m)
			return dsys.Await(dsys.MatchKind("second"))
		},
		then(record),
	))
	k.Run(time.Second)
	if strings.Join(order, ",") != "first,second" {
		t.Errorf("order %v", order)
	}
}

func TestSelfSendDelivers(t *testing.T) {
	k := New(reliableCfg(1, 1))
	ok := false
	k.SpawnStep(1, "self", script(
		func(p dsys.Proc, _ *dsys.Message) dsys.Wait {
			p.Send(1, "note", 42)
			return dsys.Await(dsys.MatchKind("note"))
		},
		then(func(_ dsys.Proc, m *dsys.Message) { ok = m.Payload.(int) == 42 && m.From == 1 }),
	))
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
	k.SpawnTickLoop(1, "chatty", dsys.TickLoop{
		Period:    10 * time.Millisecond,
		Immediate: true,
		Fn:        func(p dsys.Proc) { p.Send(2, "beat", nil) },
	})
	k.SpawnRecvLoop(1, "listen", func(dsys.Proc, *dsys.Message) {}, "never")
	var beats int
	k.SpawnRecvLoop(2, "count", func(dsys.Proc, *dsys.Message) { beats++ }, "beat")
	k.CrashAt(1, 35*time.Millisecond)
	var left []*task
	k.ScheduleFunc(36*time.Millisecond, func(time.Duration) { left = taskList(k.procAt(1)) })
	k.Run(200 * time.Millisecond)
	if len(left) != 0 {
		t.Errorf("crashed process still lists %d tasks", len(left))
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
	k.SpawnStep(1, "sender", script(
		sleep(20*time.Millisecond),
		then(func(p dsys.Proc, _ *dsys.Message) { p.Send(2, "late", nil) }),
	))
	k.SpawnStep(2, "idle", script(
		func(dsys.Proc, *dsys.Message) dsys.Wait { return dsys.Await(dsys.MatchAny) },
	))
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
		dsys.SpawnStep(p, "taskA", script(
			func(dsys.Proc, *dsys.Message) dsys.Wait { return dsys.Await(dsys.MatchKind("a")) },
			then(func(_ dsys.Proc, m *dsys.Message) { gotA = m.Kind }),
		))
		dsys.SpawnStep(p, "taskB", script(
			func(dsys.Proc, *dsys.Message) dsys.Wait { return dsys.Await(dsys.MatchKind("b")) },
			then(func(_ dsys.Proc, m *dsys.Message) { gotB = m.Kind }),
		))
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
			i := 0
			k.SpawnStep(id, "gossip", func(p dsys.Proc, _ *dsys.Message) dsys.Wait {
				if i == 20 {
					return dsys.Finished
				}
				to := dsys.ProcessID(p.Rand().Intn(p.N()) + 1)
				p.Send(to, "g", i)
				i++
				return dsys.Sleep(time.Duration(p.Rand().Intn(5)+1) * time.Millisecond)
			})
			k.SpawnRecvLoop(id, "sink", func(dsys.Proc, *dsys.Message) {}, "g")
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
		i := 0
		k.SpawnStep(1, "s", func(p dsys.Proc, _ *dsys.Message) dsys.Wait {
			if i == 10 {
				return dsys.Finished
			}
			p.Send(2, "m", i)
			i++
			return dsys.Await(dsys.MatchKind("ack")) // send times now depend on latencies
		})
		k.SpawnRecvLoop(2, "r", func(p dsys.Proc, m *dsys.Message) {
			p.Send(m.From, "ack", nil)
		}, "m")
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
	k.SpawnTickLoop(1, "ticker", dsys.TickLoop{Period: time.Millisecond, Fn: func(dsys.Proc) { ticks++ }})
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
	k.SpawnStep(1, "boom", script(
		sleep(time.Millisecond),
		then(func(dsys.Proc, *dsys.Message) { panic("kaboom") }),
	))
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
	k.SpawnStep(1, "idle", script(sleep(time.Hour)))
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
	k.SpawnStep(1, "idle", script(sleep(time.Hour)))
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
	k.SpawnStep(1, "spin", func(dsys.Proc, *dsys.Message) dsys.Wait {
		if n == 100 {
			return dsys.Finished
		}
		n++
		return dsys.Sleep(time.Duration(n%2) - 1) // 0 and -1 alternately
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
	k.SpawnStep(1, "t", script(
		func(dsys.Proc, *dsys.Message) dsys.Wait { return dsys.AwaitTimeout(dsys.MatchAny, 0) },
		then(func(p dsys.Proc, m *dsys.Message) {
			if m != nil {
				t.Error("expected no message")
			}
			if p.Now() != 0 {
				t.Errorf("a zero timeout resumed the task at %v", p.Now())
			}
			called = true
		}),
	))
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
	sent := 0
	k.SpawnStep(1, "s", func(p dsys.Proc, _ *dsys.Message) dsys.Wait {
		if sent == 100 {
			return dsys.Finished
		}
		p.Send(2, "m", p.Now())
		sent++
		return dsys.Sleep(5 * time.Millisecond)
	})
	k.SpawnRecvLoop(2, "r", func(p dsys.Proc, m *dsys.Message) {
		lat = append(lat, p.Now()-m.SentAt)
		if m.SentAt >= gst && p.Now()-m.SentAt > delta {
			t.Errorf("post-GST message took %v > Δ=%v", p.Now()-m.SentAt, delta)
		}
		if m.SentAt < gst && p.Now() > gst+delta {
			t.Errorf("pre-GST message arrived at %v, after GST+Δ", p.Now())
		}
	}, "m")
	k.Run(time.Second)
	if len(lat) != 100 {
		t.Errorf("delivered %d of 100", len(lat))
	}
}
