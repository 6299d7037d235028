package sim

import (
	"fmt"
	"reflect"
	"runtime"
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
// task. The goroutine count read inside a Spawn body, inside a step and after
// Run must equal the count before Run: every task runs on the Run goroutine.
func TestNeverBlockingTasksShareOneGoroutine(t *testing.T) {
	const n = 1000
	k := New(reliableCfg(10, 1))
	var counts []int
	sample := func() { counts = append(counts, runtime.NumGoroutine()) }
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
	before := runtime.NumGoroutine()
	k.Run(time.Second)
	sample()
	if ran != n {
		t.Fatalf("%d of %d Spawn bodies ran", ran, n)
	}
	if len(counts) != n+100+2 {
		t.Fatalf("%d samples, want %d", len(counts), n+100+2)
	}
	for i, c := range counts {
		if c != before {
			t.Fatalf("sample %d read %d goroutines, %d before Run", i, c, before)
		}
	}
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
	})
	k.Run(time.Second)
	if ran {
		t.Error("task ran after its process crashed")
	}
	for h, tk := range k.tasks.slots {
		if tk != nil {
			t.Errorf("task table slot %d still holds %s", h, tk.name)
		}
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
// instant it finishes, with the survivors still in creation order.
func TestFinishedTaskLeavesTaskList(t *testing.T) {
	k := New(reliableCfg(1, 1))
	k.SpawnStep(1, "a", script(sleep(time.Hour)))
	k.Spawn(1, "done-body", func(p dsys.Proc) {})
	k.SpawnStep(1, "b", script(sleep(time.Hour)))
	k.SpawnStep(1, "done-step", script(sleep(time.Millisecond)))
	k.SpawnRecvLoop(1, "c", func(p dsys.Proc, m *dsys.Message) {}, "never")
	var names []string
	// One nanosecond after both finished: nothing else has run since.
	k.ScheduleFunc(time.Millisecond+1, func(time.Duration) {
		for _, tk := range taskList(k.procAt(1)) {
			names = append(names, tk.name)
		}
	})
	k.Run(time.Second)
	if got, want := names, []string{"a", "b", "c"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("task list after two tasks finished = %v, want %v", got, want)
	}
	live := 0
	for _, tk := range k.tasks.slots {
		if tk != nil {
			live++
		}
	}
	if live != 0 {
		t.Errorf("%d task-table slots still occupied after the run", live)
	}
}

// taskOf returns the task behind a task's dsys.Proc handle.
func taskOf(p dsys.Proc) *task { return p.(taskView).t }
