package sim

import (
	"testing"
	"time"

	"repro/internal/dsys"
)

// TestTaskTableStaysBounded spawns 10,000 short-lived tasks on one process
// and checks that finished tasks leave both the process's task list and the
// kernel's task table at once: otherwise every done task would pin an entry
// (and its closure and wake message) for the whole run, and crash/unwind
// would walk thousands of dead entries. At most the spawner and one child are
// ever unfinished, so neither may grow past two entries.
func TestTaskTableStaysBounded(t *testing.T) {
	k := New(reliableCfg(1, 1))
	done := 0
	spawned := 0
	k.SpawnStep(1, "spawner", func(p dsys.Proc, _ *dsys.Message) dsys.Wait {
		if spawned == 10000 {
			return dsys.Finished
		}
		dsys.SpawnStep(p, "child", script(sleep(time.Microsecond), then(func(dsys.Proc, *dsys.Message) { done++ })))
		spawned++
		return dsys.Sleep(2 * time.Microsecond)
	})
	maxLen, slots := 0, 0
	k.Every(time.Millisecond, time.Millisecond, func(time.Duration) {
		maxLen = max(maxLen, len(taskList(k.procAt(1))))
		slots = len(k.tasks.slots) // the table's high-water mark
	})
	k.Run(time.Minute)
	if done != 10000 {
		t.Fatalf("only %d of 10000 tasks ran", done)
	}
	if maxLen > 2 {
		t.Errorf("task list grew to %d entries mid-run; finished tasks are not leaving it", maxLen)
	}
	if n := len(taskList(k.procAt(1))); n != 0 {
		t.Errorf("task list retains %d entries after the run", n)
	}
	if n := slots; n > 2 {
		t.Errorf("task table grew to %d slots; finished tasks' handles are not recycled", n)
	}
}

// taskList returns p's unfinished tasks in list order.
func taskList(p *proc) []*task {
	var ts []*task
	for t := p.first; t != nil; t = t.next {
		ts = append(ts, t)
	}
	return ts
}

// TestDeliveryNeverMatchesDoneTask parks a task on a kind, lets it time out
// and finish, and only then delivers a message of that kind: the done task —
// which once sat in that kind's parked lane — must not swallow the message;
// it stays buffered for the next task that asks.
func TestDeliveryNeverMatchesDoneTask(t *testing.T) {
	k := New(reliableCfg(2, 1))
	k.SpawnStep(1, "short-lived", script(
		func(dsys.Proc, *dsys.Message) dsys.Wait {
			return dsys.AwaitTimeout(dsys.MatchKind("evt"), time.Millisecond)
		},
		then(func(_ dsys.Proc, m *dsys.Message) {
			if m != nil {
				t.Errorf("short-lived task received %q before its timeout", m.Kind)
			}
		}),
	))
	k.SpawnStep(2, "sender", script(
		sleep(5*time.Millisecond), // well after the first task finished
		then(func(p dsys.Proc, _ *dsys.Message) { p.Send(1, "evt", nil) }),
	))
	var got string
	k.SpawnStep(1, "late", script(
		sleep(10*time.Millisecond),
		func(dsys.Proc, *dsys.Message) dsys.Wait { return dsys.Await(dsys.MatchKind("evt")) },
		then(func(_ dsys.Proc, m *dsys.Message) { got = m.Kind }),
	))
	k.Run(time.Second)
	if got != "evt" {
		t.Fatalf("late task got %q, want the buffered evt message", got)
	}
}

// TestConsumedBufferEntriesReleased checks the satellite memory-retention
// fix: consuming a buffered message must nil its buffer slot so the message
// (and its payload) can be collected, instead of being pinned until the
// buffer slice happens to be reallocated.
func TestConsumedBufferEntriesReleased(t *testing.T) {
	k := New(reliableCfg(2, 1))
	k.Spawn(2, "sender", func(p dsys.Proc) {
		for i := 0; i < 100; i++ {
			p.Send(1, "x", i)
		}
	})
	took := 0
	k.SpawnStep(1, "recv", func(p dsys.Proc, m *dsys.Message) dsys.Wait {
		if m != nil {
			took++
		}
		switch {
		case p.Now() == 0:
			return dsys.Sleep(10 * time.Millisecond) // let every message buffer first
		case took == 100:
			return dsys.Finished
		}
		return dsys.Await(dsys.MatchKind("x"))
	})
	k.ScheduleFunc(time.Second, func(time.Duration) {
		for i, e := range k.procAt(1).buf {
			if e.slot >= 0 {
				t.Errorf("buf[%d] still holds arena slot %d after consumption", i, e.slot)
			}
		}
		if live := k.arena.live(); live != 0 {
			t.Errorf("arena still has %d live slots after every message was consumed", live)
		}
	})
	k.Run(time.Second)
	if took != 100 {
		t.Fatalf("took %d of 100 messages", took)
	}
}
