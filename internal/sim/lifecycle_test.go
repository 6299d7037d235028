package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/dsys"
)

// TestEventIsPointerFree pins the event record at 32 bytes with no field the
// garbage collector would have to scan: the event queue holds one per
// pending timer and in-flight message, so a pointer field would make every
// ring and the heap scanned memory and every store a write barrier.
func TestEventIsPointerFree(t *testing.T) {
	if size := unsafe.Sizeof(event{}); size != 32 {
		t.Errorf("event is %d bytes, want 32", size)
	}
	rt := reflect.TypeOf(event{})
	for i := 0; i < rt.NumField(); i++ {
		if f := rt.Field(i); holdsPointer(f.Type) {
			t.Errorf("event field %s (%v) holds a pointer", f.Name, f.Type)
		}
	}
}

// TestMsgSlotSize pins the message arena's slot at 40 bytes with nothing a
// copy of the message does not share: no kind name (the slot holds the
// interned id) and no destination (each delivery event carries its own).
// Every in-flight message costs one slot, so a field added here is paid once
// per message in flight.
func TestMsgSlotSize(t *testing.T) {
	if size := unsafe.Sizeof(msgSlot{}); size != 40 {
		t.Errorf("msgSlot is %d bytes, want 40", size)
	}
	rt := reflect.TypeOf(msgSlot{})
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		if f.Type.Kind() == reflect.String {
			t.Errorf("msgSlot field %s is a string; the slot holds the kind's interned id", f.Name)
		}
		if strings.EqualFold(f.Name, "to") {
			t.Errorf("msgSlot has a destination field %s; the delivery event carries it", f.Name)
		}
	}
}

// holdsPointer reports whether a value of type rt contains anything the
// garbage collector must trace.
func holdsPointer(rt reflect.Type) bool {
	switch rt.Kind() {
	case reflect.Array:
		return rt.Len() > 0 && holdsPointer(rt.Elem())
	case reflect.Struct:
		for i := 0; i < rt.NumField(); i++ {
			if holdsPointer(rt.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Slice,
		reflect.String, reflect.Chan, reflect.Func, reflect.Interface:
		return true
	}
	return false
}

// TestNeverBlockingTasksShareOneGoroutine runs 1,000 Spawn bodies — the
// shape of a population's set-up tasks — a receive loop and a sleeping step
// task. A goroutine profile read inside each Spawn body, inside each step and
// after Run must show no goroutine that code in internal/sim or internal/dsys
// created: every task runs on the Run goroutine. The profile names each
// goroutine's creator, so a goroutine of another test that starts or exits
// during the run does not change the reading.
func TestNeverBlockingTasksShareOneGoroutine(t *testing.T) {
	const n = 1000
	k := New(reliableCfg(10, 1))
	samples := 0
	var started []string // the first sample's kernel goroutines, if any
	sample := func() {
		samples++
		if g := kernelGoroutines(); len(g) > 0 && started == nil {
			started = append(g, fmt.Sprintf("(sample %d)", samples-1))
		}
	}
	ran := 0
	for i := 0; i < n; i++ {
		k.Spawn(dsys.ProcessID(i%10+1), "setup", func(p dsys.Proc) {
			ran++
			sample()
			p.Send(p.ID()%10+1, "x", nil)
		})
	}
	k.SpawnRecvLoop(3, "loop", func(dsys.Proc, *dsys.Message) { sample() }, "x")
	k.SpawnStep(4, "sleeper", script(sleep(time.Millisecond), then(func(dsys.Proc, *dsys.Message) { sample() })))
	k.Run(time.Second)
	sample()
	if ran != n {
		t.Fatalf("%d of %d Spawn bodies ran", ran, n)
	}
	if samples != n+100+2 {
		t.Fatalf("%d samples, want %d", samples, n+100+2)
	}
	if started != nil {
		t.Fatalf("tasks ran on goroutines the kernel started:\n%s", strings.Join(started, "\n\n"))
	}
}

// kernelGoroutines returns the stacks, from a goroutine profile, of the
// goroutines that code in internal/sim or internal/dsys created.
func kernelGoroutines() []string {
	var b strings.Builder
	if err := pprof.Lookup("goroutine").WriteTo(&b, 2); err != nil {
		panic(err)
	}
	creators := []string{
		"created by " + reflect.TypeOf(Kernel{}).PkgPath() + ".",
		"created by " + reflect.TypeOf(dsys.Message{}).PkgPath() + ".",
	}
	var out []string
	for _, g := range strings.Split(b.String(), "\n\n") {
		for _, line := range strings.Split(g, "\n") {
			if strings.HasPrefix(line, creators[0]) || strings.HasPrefix(line, creators[1]) {
				out = append(out, g)
				break
			}
		}
	}
	return out
}

// TestCrashBeforeFirstSelectionStartsNoGoroutine spawns a task from a hook
// and crashes its process before the dispatch loop ever selects it: neither
// step starts a goroutine, the task never runs, and it leaves the task list
// and the task table like any finished task.
func TestCrashBeforeFirstSelectionStartsNoGoroutine(t *testing.T) {
	k := New(reliableCfg(2, 1))
	ran := false
	k.ScheduleFunc(time.Millisecond, func(time.Duration) {
		before := runtime.NumGoroutine()
		k.Spawn(1, "never-selected", func(p dsys.Proc) { ran = true })
		if got := runtime.NumGoroutine() - before; got != 0 {
			t.Errorf("Spawn started %d goroutines", got)
		}
		k.crash(k.procAt(1))
		if got := runtime.NumGoroutine() - before; got != 0 {
			t.Errorf("crashing the process started %d goroutines", got)
		}
		if ts := taskList(k.procAt(1)); len(ts) != 0 {
			t.Errorf("crashed process still lists %d tasks", len(ts))
		}
		for h, tk := range k.tasks.slots {
			if tk != nil {
				t.Errorf("task table slot %d still holds %s", h, tk.name)
			}
		}
	})
	k.Run(time.Second)
	if ran {
		t.Error("task ran after its process crashed")
	}
}

// TestBlockingPrimitivesFailTheRun calls each blocking primitive from a
// Spawn body and from a step: the run must stop with an error naming the
// process, the task and the primitive, and pointing to dsys.Wait.
func TestBlockingPrimitivesFailTheRun(t *testing.T) {
	prims := map[string]func(p dsys.Proc){
		"Recv":        func(p dsys.Proc) { p.Recv(dsys.MatchAny) },
		"RecvTimeout": func(p dsys.Proc) { p.RecvTimeout(dsys.MatchAny, time.Millisecond) },
		"Sleep":       func(p dsys.Proc) { p.Sleep(time.Millisecond) },
	}
	for prim, call := range prims {
		for _, from := range []string{"body", "step"} {
			t.Run(prim+"-from-"+from, func(t *testing.T) {
				k := New(reliableCfg(2, 1))
				if from == "body" {
					k.Spawn(2, "blocker", call)
				} else {
					k.SpawnStep(2, "blocker", script(sleep(time.Millisecond), then(func(p dsys.Proc, _ *dsys.Message) { call(p) })))
				}
				defer func() {
					msg := fmt.Sprint(recover())
					for _, want := range []string{"p2/blocker called " + prim + ",", "dsys.Wait"} {
						if !strings.Contains(msg, want) {
							t.Errorf("Run panicked with %q, want it to contain %q", msg, want)
						}
					}
				}()
				k.Run(time.Second)
			})
		}
	}
}

// TestStaleTimerIgnoredAfterHandleReuse lets a task finish with a
// RecvTimeout timer still pending, then parks a new task on the same
// task-table slot in the same park generation. The old timer names the slot
// and the park generation the new task has; only the task id it carries
// tells the two apart, and it must keep the timer from waking the new task.
func TestStaleTimerIgnoredAfterHandleReuse(t *testing.T) {
	k := New(reliableCfg(2, 1))
	var first, second *task
	k.SpawnStep(1, "early", script(
		func(p dsys.Proc, _ *dsys.Message) dsys.Wait {
			first = taskOf(p)
			return dsys.AwaitTimeout(dsys.MatchKind("go"), 10*time.Millisecond)
		},
		then(func(_ dsys.Proc, m *dsys.Message) {
			if m == nil {
				t.Error("early task timed out instead of receiving go")
			}
		}),
	))
	k.Spawn(2, "sender", func(p dsys.Proc) { p.Send(1, "go", nil) })
	woken := false
	k.ScheduleFunc(2*time.Millisecond, func(time.Duration) {
		k.SpawnStep(1, "late", script(
			func(p dsys.Proc, _ *dsys.Message) dsys.Wait {
				second = taskOf(p)
				return dsys.Await(dsys.MatchKind("never"))
			},
			then(func(dsys.Proc, *dsys.Message) { woken = true }),
		))
	})
	k.Run(time.Second)
	if second == nil {
		t.Fatal("late task never ran")
	}
	if first.h != second.h {
		t.Fatalf("late task got handle %d, not the finished task's %d", second.h, first.h)
	}
	if first.parkGen != second.parkGen {
		t.Fatalf("park generations %d and %d differ; the scenario needs them equal", first.parkGen, second.parkGen)
	}
	if woken {
		t.Error("the finished task's timer woke the task reusing its handle")
	}
}

// TestFinishedTaskLeavesTaskList checks that a finished task — a Spawn body
// or a step task — leaves its process's task list and the task table at the
// instant it finishes, with the survivors still in creation order. The
// survivors leave both when the run ends, or Run's leak check panics.
func TestFinishedTaskLeavesTaskList(t *testing.T) {
	k := New(reliableCfg(1, 1))
	k.SpawnStep(1, "a", script(sleep(time.Hour)))
	k.Spawn(1, "done-body", func(p dsys.Proc) {})
	k.SpawnStep(1, "b", script(sleep(time.Hour)))
	k.SpawnStep(1, "done-step", script(sleep(time.Millisecond)))
	k.SpawnRecvLoop(1, "c", func(p dsys.Proc, m *dsys.Message) {}, "never")
	var names []string
	live := 0
	// One nanosecond after both finished: nothing else has run since.
	k.ScheduleFunc(time.Millisecond+1, func(time.Duration) {
		for _, tk := range taskList(k.procAt(1)) {
			names = append(names, tk.name)
		}
		for _, tk := range k.tasks.slots {
			if tk != nil {
				live++
			}
		}
	})
	k.Run(time.Second)
	if got, want := names, []string{"a", "b", "c"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("task list after two tasks finished = %v, want %v", got, want)
	}
	if live != 3 {
		t.Errorf("%d task-table slots occupied by the three unfinished tasks", live)
	}
	if ts := taskList(k.procAt(1)); len(ts) != 0 {
		t.Errorf("task list retains %d entries after the run", len(ts))
	}
}

// taskOf returns the task behind a task's dsys.Proc handle.
func taskOf(p dsys.Proc) *task { return p.(taskView).t }

// TestFinishedKernelHoldsOnlyResults ends a run with deliveries pending,
// messages left unmatched in a buffer, tasks parked in both dispatch lanes
// and a hook due after the horizon. Once Run returns, the kernel must hold
// none of its dispatch machinery, and Now, Events, N, Crashed and Correct
// must read what a hook read at the horizon.
func TestFinishedKernelHoldsOnlyResults(t *testing.T) {
	const n = 4
	horizon := 10*time.Millisecond + 500*time.Microsecond // no other event is due then
	k := New(reliableCfg(n, 1))
	k.SpawnTickLoop(1, "beat", dsys.TickLoop{Period: time.Millisecond, Immediate: true, Fn: func(p dsys.Proc) {
		for _, q := range p.All()[1:] {
			p.Send(q, "beat", p.Now())
		}
		p.Send(3, "other", nil)
	}})
	k.SpawnRecvLoop(2, "sink", func(dsys.Proc, *dsys.Message) {}, "beat")
	never := dsys.MatchFunc(func(*dsys.Message) bool { return false })
	k.SpawnStep(3, "generic", func(dsys.Proc, *dsys.Message) dsys.Wait { return dsys.Await(never) })
	k.SpawnStep(3, "kind", func(dsys.Proc, *dsys.Message) dsys.Wait { return dsys.Await(dsys.MatchKind("none")) })
	k.CrashAt(4, 5*time.Millisecond)
	k.Every(0, 2*time.Millisecond, func(time.Duration) {})
	k.ScheduleFunc(time.Hour, func(time.Duration) { t.Error("a hook after the horizon fired") })

	type results struct {
		now     time.Duration
		events  uint64
		crashed []bool
		correct []dsys.ProcessID
	}
	read := func() results {
		r := results{now: k.Now(), events: k.Events(), correct: k.Correct()}
		for _, id := range dsys.Pids(n) {
			r.crashed = append(r.crashed, k.Crashed(id))
		}
		return r
	}
	var atHorizon results
	k.ScheduleFunc(horizon, func(time.Duration) {
		atHorizon = read()
		p3 := k.procAt(3)
		if k.eq.Len() == 0 || len(p3.buf) == 0 || len(p3.anyParked) == 0 || len(p3.kindLanes) == 0 {
			t.Errorf("at the horizon: %d pending events, %d buffered at p3, %d generic and %d kind lanes; the scenario leaves nothing behind",
				k.eq.Len(), len(p3.buf), len(p3.anyParked), len(p3.kindLanes))
		}
	})
	end := k.Run(horizon)

	if got := read(); end != atHorizon.now || !reflect.DeepEqual(got, atHorizon) || k.N() != n {
		t.Errorf("after Run: end %v, %+v, N %d; at the horizon: %+v, N %d", end, got, k.N(), atHorizon, n)
	}
	if want := []bool{false, false, false, true}; !reflect.DeepEqual(atHorizon.crashed, want) {
		t.Errorf("crashed at the horizon: %v, want %v", atHorizon.crashed, want)
	}
	for name, v := range map[string]any{
		"event queue": k.eq, "message arena": k.arena, "task table": k.tasks, "hook table": k.hooks,
		"run queue": k.runq, "last message": k.msg, "network random source": k.netRNG,
	} {
		if !reflect.ValueOf(v).IsZero() {
			t.Errorf("finished kernel still holds its %s", name)
		}
	}
	for _, p := range k.procs {
		if p.buf != nil || p.byKid != nil || p.kindLanes != nil || p.anyParked != nil {
			t.Errorf("finished kernel still holds p%d's buffer or dispatch lanes", p.id)
		}
	}
}

// TestSchedulingAfterRunPanics checks that CrashAt, ScheduleFunc and Every
// fail loudly once Run has returned, as a second Run does: the event they
// would schedule could never fire.
func TestSchedulingAfterRunPanics(t *testing.T) {
	calls := map[string]func(k *Kernel){
		"CrashAt":      func(k *Kernel) { k.CrashAt(1, time.Second) },
		"ScheduleFunc": func(k *Kernel) { k.ScheduleFunc(time.Second, func(time.Duration) {}) },
		"Every":        func(k *Kernel) { k.Every(time.Second, time.Second, func(time.Duration) {}) },
	}
	for name, call := range calls {
		t.Run(name, func(t *testing.T) {
			k := New(reliableCfg(2, 1))
			call(k) // before Run: scheduled normally
			k.Run(time.Millisecond)
			defer func() {
				if msg, want := fmt.Sprint(recover()), "sim: "+name+" called after Run"; msg != want {
					t.Errorf("%s after Run panicked with %q, want %q", name, msg, want)
				}
			}()
			call(k)
		})
	}
}

// TestRunCatchesLeaks plants each kind of leak the end-of-run check looks
// for: Run must panic naming it.
func TestRunCatchesLeaks(t *testing.T) {
	leaks := map[string]struct {
		plant func(k *Kernel)
		want  string
	}{
		"reference nothing holds": {func(k *Kernel) { _, s := k.arena.alloc(); s.refs = 1 }, "ARENA LEAK"},
		"slot never recycled":     {func(k *Kernel) { k.arena.alloc() }, "ARENA LEAK"},
		"task left in the table":  {func(k *Kernel) { k.tasks.add(&task{name: "ghost", p: k.procAt(1)}) }, "TASK LEAK: task p1/ghost"},
	}
	for name, leak := range leaks {
		t.Run(name, func(t *testing.T) {
			k := New(reliableCfg(2, 1))
			k.Spawn(1, "send", func(p dsys.Proc) { p.Send(2, "x", nil) }) // left buffered: not a leak
			k.ScheduleFunc(time.Millisecond, func(time.Duration) { leak.plant(k) })
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, leak.want) {
					t.Errorf("Run panicked with %q, want it to contain %q", msg, leak.want)
				}
			}()
			k.Run(time.Second)
		})
	}
}
