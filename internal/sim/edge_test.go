package sim

import (
	"strings"
	"testing"
	"time"

	"repro/internal/dsys"
	"repro/internal/network"
)

func TestRunTwicePanics(t *testing.T) {
	k := New(reliableCfg(1, 1))
	k.Spawn(1, "noop", func(p dsys.Proc) {})
	k.Run(time.Millisecond)
	defer func() {
		if recover() == nil {
			t.Error("second Run should panic")
		}
	}()
	k.Run(time.Millisecond)
}

func TestInvalidConfigPanics(t *testing.T) {
	cases := []Config{
		{N: 0, Network: network.Reliable{Latency: network.Fixed(0)}},
		{N: 2, Network: nil},
	}
	for i, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: New should panic", i)
				}
			}()
			New(cfg)
		}()
	}
}

func TestSendToInvalidProcessPanics(t *testing.T) {
	k := New(reliableCfg(2, 1))
	k.Spawn(1, "bad", func(p dsys.Proc) {
		p.Send(99, "x", nil)
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic for invalid destination")
		}
	}()
	k.Run(time.Second)
}

func TestEveryWithBadPeriodPanics(t *testing.T) {
	k := New(reliableCfg(1, 1))
	defer func() {
		if recover() == nil {
			t.Error("Every with zero period should panic")
		}
	}()
	k.Every(0, 0, func(time.Duration) {})
}

func TestCrashAlreadyCrashedIsNoop(t *testing.T) {
	k := New(reliableCfg(2, 1))
	k.SpawnStep(1, "idle", script(sleep(time.Hour)))
	k.SpawnStep(2, "idle", script(sleep(time.Hour)))
	k.CrashAt(1, time.Millisecond)
	k.CrashAt(1, 2*time.Millisecond) // double crash
	k.Run(10 * time.Millisecond)
	if !k.Crashed(1) || k.Crashed(2) {
		t.Error("crash state wrong")
	}
}

func TestNestedSpawnsUnwindOnCrash(t *testing.T) {
	k := New(reliableCfg(1, 1))
	resumed := 0
	// nest spawns a task that spawns depth more below it, then sleeps past
	// the crash; a task resumed after its process crashed counts.
	var nest func(depth int) dsys.StepFunc
	nest = func(depth int) dsys.StepFunc {
		return script(
			func(p dsys.Proc, _ *dsys.Message) dsys.Wait {
				if depth > 0 {
					dsys.SpawnStep(p, "child", nest(depth-1))
				}
				return dsys.Sleep(time.Hour)
			},
			then(func(dsys.Proc, *dsys.Message) { resumed++ }),
		)
	}
	k.SpawnStep(1, "root", nest(2))
	var before, after int
	k.ScheduleFunc(time.Millisecond, func(time.Duration) { before = len(taskList(k.procAt(1))) })
	k.CrashAt(1, 5*time.Millisecond)
	k.ScheduleFunc(5*time.Millisecond, func(time.Duration) { after = len(taskList(k.procAt(1))) })
	k.Run(2 * time.Hour)
	if before != 3 || after != 0 {
		t.Errorf("process listed %d tasks before the crash and %d after, want 3 and 0", before, after)
	}
	if resumed != 0 {
		t.Errorf("%d tasks resumed after their process crashed", resumed)
	}
}

func TestSpawnFromHarnessDuringRun(t *testing.T) {
	k := New(reliableCfg(2, 1))
	got := false
	k.SpawnStep(2, "recv", script(
		func(dsys.Proc, *dsys.Message) dsys.Wait { return dsys.Await(dsys.MatchKind("late")) },
		then(func(_ dsys.Proc, m *dsys.Message) { got = m != nil }),
	))
	k.ScheduleFunc(10*time.Millisecond, func(time.Duration) {
		k.Spawn(1, "late-task", func(p dsys.Proc) {
			p.Send(2, "late", nil)
		})
	})
	k.Run(time.Second)
	if !got {
		t.Error("task spawned mid-run did not execute")
	}
}

func TestMessagesPreserveFIFOPerLinkWithFixedLatency(t *testing.T) {
	// With constant latency, messages on one link arrive in send order.
	k := New(reliableCfg(2, 1))
	var got []int
	k.Spawn(1, "s", func(p dsys.Proc) {
		for i := 0; i < 50; i++ {
			p.Send(2, "seq", i)
		}
	})
	k.SpawnRecvLoop(2, "r", func(_ dsys.Proc, m *dsys.Message) {
		got = append(got, m.Payload.(int))
	}, "seq")
	k.Run(time.Second)
	for i, v := range got {
		if v != i {
			t.Fatalf("reorder at %d: %v", i, got[:i+1])
		}
	}
}

func TestReorderingUnderVariableLatency(t *testing.T) {
	// With variable latency the simulator must allow reordering — the
	// asynchronous model the paper assumes.
	cfg := Config{
		N:       2,
		Network: network.Reliable{Latency: network.Uniform{Min: time.Millisecond, Max: 50 * time.Millisecond}},
		Seed:    3,
	}
	k := New(cfg)
	var got []int
	sent := 0
	k.SpawnStep(1, "s", func(p dsys.Proc, _ *dsys.Message) dsys.Wait {
		if sent == 100 {
			return dsys.Finished
		}
		p.Send(2, "seq", sent)
		sent++
		return dsys.Sleep(time.Millisecond)
	})
	k.SpawnRecvLoop(2, "r", func(_ dsys.Proc, m *dsys.Message) {
		got = append(got, m.Payload.(int))
	}, "seq")
	k.Run(5 * time.Second)
	inOrder := true
	for i, v := range got {
		if v != i {
			inOrder = false
			break
		}
	}
	if inOrder {
		t.Error("no reordering under 50x latency variance — suspicious")
	}
}

func TestManyProcessesScale(t *testing.T) {
	// 128 processes gossiping: a smoke test that the kernel scales.
	n := 128
	k := New(Config{N: n, Network: network.Reliable{Latency: network.Fixed(time.Millisecond)}, Seed: 1})
	delivered := 0
	for _, id := range dsys.Pids(n) {
		next := dsys.ProcessID(int(id)%n + 1)
		i := 0
		k.SpawnStep(id, "node", func(p dsys.Proc, _ *dsys.Message) dsys.Wait {
			if i == 0 {
				dsys.SpawnRecvLoop(p, "recv", func(dsys.Proc, *dsys.Message) { delivered++ }, "g")
			}
			if i == 10 {
				return dsys.Finished
			}
			p.Send(next, "g", i)
			i++
			return dsys.Sleep(5 * time.Millisecond)
		})
	}
	k.Run(time.Second)
	if delivered != n*10 {
		t.Errorf("delivered %d, want %d", delivered, n*10)
	}
}

func TestVirtualTimeUnaffectedByWallClock(t *testing.T) {
	// A heavy computation inside a task consumes no virtual time.
	k := New(reliableCfg(1, 1))
	var at time.Duration
	k.Spawn(1, "heavy", func(p dsys.Proc) {
		sum := 0
		for i := 0; i < 1_000_000; i++ {
			sum += i
		}
		_ = sum
		at = p.Now()
	})
	k.Run(time.Second)
	if at != 0 {
		t.Errorf("virtual time advanced to %v during pure computation", at)
	}
}

func TestLogfGoesToConfiguredWriter(t *testing.T) {
	var buf logBuffer
	cfg := reliableCfg(1, 1)
	cfg.Log = &buf
	k := New(cfg)
	k.Spawn(1, "logger", func(p dsys.Proc) {
		p.Logf("hello %d", 42)
	})
	k.Run(time.Millisecond)
	if got := buf.String(); got == "" || !contains(got, "hello 42") || !contains(got, "p1/logger") {
		t.Errorf("log output %q", got)
	}
}

type logBuffer struct{ s string }

func (b *logBuffer) Write(p []byte) (int, error) { b.s += string(p); return len(p), nil }
func (b *logBuffer) String() string              { return b.s }

func contains(s, sub string) bool { return strings.Contains(s, sub) }
