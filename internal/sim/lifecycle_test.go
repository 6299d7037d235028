package sim

import (
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

// TestNeverBlockingTasksShareOneGoroutine spawns 1,000 blocking tasks that
// return without ever blocking — the shape of a population's set-up tasks —
// and checks they run on one goroutine between them: each starts lazily, on
// the goroutine whose task has just finished.
func TestNeverBlockingTasksShareOneGoroutine(t *testing.T) {
	const n = 1000
	k := New(reliableCfg(10, 1))
	before := runtime.NumGoroutine()
	peak, ran := 0, 0
	ids := map[string]bool{}
	for i := 0; i < n; i++ {
		k.Spawn(dsys.ProcessID(i%10+1), "setup", func(p dsys.Proc) {
			ran++
			peak = max(peak, runtime.NumGoroutine())
			ids[goroutineID()] = true
		})
	}
	if got := runtime.NumGoroutine() - before; got > 0 {
		t.Errorf("spawning %d tasks started %d goroutines before Run", n, got)
	}
	k.Run(time.Second)
	if ran != n {
		t.Fatalf("%d of %d tasks ran", ran, n)
	}
	if extra := peak - before; extra > 1 {
		t.Errorf("tasks raised the goroutine count by %d during the run, want at most 1", extra)
	}
	if len(ids) != 1 {
		t.Errorf("tasks ran on %d goroutines, want 1", len(ids))
	}
}

// goroutineID returns the calling goroutine's id, read from the header line
// of its stack trace ("goroutine 7 [running]:").
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	f := strings.Fields(string(buf))
	if len(f) < 2 || f[0] != "goroutine" {
		panic("unexpected stack header: " + string(buf))
	}
	return f[1]
}

// TestCrashBeforeFirstSelectionStartsNoGoroutine spawns a blocking task and
// crashes its process before the dispatch loop ever selects it: the task
// must never run and never get a goroutine, and it must leave the task list
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

// TestStaleTimerIgnoredAfterHandleReuse lets a task finish with a
// RecvTimeout timer still pending, then parks a new task on the same
// task-table slot in the same park generation. The old timer names the slot
// and the park generation the new task has; only the task id it carries
// tells the two apart, and it must keep the timer from waking the new task.
func TestStaleTimerIgnoredAfterHandleReuse(t *testing.T) {
	k := New(reliableCfg(2, 1))
	var first, second *task
	k.Spawn(1, "early", func(p dsys.Proc) {
		first = taskOf(p)
		if _, ok := p.RecvTimeout(dsys.MatchKind("go"), 10*time.Millisecond); !ok {
			t.Error("early task timed out instead of receiving go")
		}
	})
	k.Spawn(2, "sender", func(p dsys.Proc) { p.Send(1, "go", nil) })
	woken := false
	k.ScheduleFunc(2*time.Millisecond, func(time.Duration) {
		k.Spawn(1, "late", func(p dsys.Proc) {
			second = taskOf(p)
			p.Recv(dsys.MatchKind("never"))
			woken = true
		})
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

// TestFinishedTaskLeavesTaskList checks that a finished task — blocking or
// step — leaves its process's task list and the task table at the instant it
// finishes, with the survivors still in creation order.
func TestFinishedTaskLeavesTaskList(t *testing.T) {
	k := New(reliableCfg(1, 1))
	k.Spawn(1, "a", func(p dsys.Proc) { p.Sleep(time.Hour) })
	k.Spawn(1, "done-blocking", func(p dsys.Proc) { p.Sleep(time.Millisecond) })
	k.Spawn(1, "b", func(p dsys.Proc) { p.Sleep(time.Hour) })
	slept := false
	k.spawnStep(k.procAt(1), "done-step", func(p dsys.Proc, m *dsys.Message) dsys.Wait {
		if !slept {
			slept = true
			return dsys.Sleep(time.Millisecond)
		}
		return dsys.Finished
	})
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
