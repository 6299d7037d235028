package trace_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/dsys"
	"repro/internal/trace"
)

func msg(from, to dsys.ProcessID, kind string, at time.Duration) *dsys.Message {
	return &dsys.Message{From: from, To: to, Kind: kind, SentAt: at}
}

func TestCountersByKind(t *testing.T) {
	c := &trace.Collector{}
	c.OnSend(msg(1, 2, "a", 0), false)
	c.OnSend(msg(1, 2, "a", 0), true)
	c.OnSend(msg(2, 1, "b", 0), false)
	c.OnDeliver(msg(1, 2, "a", 0))
	if c.Sent("a") != 2 || c.Dropped("a") != 1 || c.Delivered("a") != 1 {
		t.Errorf("a: sent=%d dropped=%d delivered=%d", c.Sent("a"), c.Dropped("a"), c.Delivered("a"))
	}
	if c.Sent("b") != 1 || c.TotalSent() != 3 {
		t.Errorf("b=%d total=%d", c.Sent("b"), c.TotalSent())
	}
	if ks := c.Kinds(); len(ks) != 2 || ks[0] != "a" || ks[1] != "b" {
		t.Errorf("Kinds = %v", ks)
	}
}

func TestEventLogAndWindows(t *testing.T) {
	c := trace.NewCollector()
	c.OnSend(msg(1, 2, "x", 5*time.Millisecond), false)
	c.OnSend(msg(1, 2, "x", 15*time.Millisecond), false)
	c.OnSend(msg(1, 2, "y", 15*time.Millisecond), true)
	c.OnSend(msg(1, 2, "x", 25*time.Millisecond), false)
	if got := c.SentBetween(10*time.Millisecond, 20*time.Millisecond); got != 2 {
		t.Errorf("window all kinds = %d", got)
	}
	if got := c.SentBetween(10*time.Millisecond, 20*time.Millisecond, "x"); got != 1 {
		t.Errorf("window x = %d", got)
	}
	if got := c.SentBetween(0, 30*time.Millisecond, "x"); got != 3 {
		t.Errorf("all x = %d", got)
	}
	// Window bounds: [from, to).
	if got := c.SentBetween(5*time.Millisecond, 15*time.Millisecond, "x"); got != 1 {
		t.Errorf("half-open window = %d", got)
	}
	if evs := c.Events(); len(evs) != 4 || !evs[2].Dropped {
		t.Errorf("events = %+v", evs)
	}
}

func TestNoEventLogWithoutFlag(t *testing.T) {
	c := &trace.Collector{}
	c.OnSend(msg(1, 2, "x", 0), false)
	if len(c.Events()) != 0 {
		t.Error("events retained without LogMessages")
	}
}

func TestCrashRecords(t *testing.T) {
	c := &trace.Collector{}
	c.OnCrash(3, 40*time.Millisecond)
	if at, ok := c.CrashTime(3); !ok || at != 40*time.Millisecond {
		t.Errorf("CrashTime = %v %v", at, ok)
	}
	if _, ok := c.CrashTime(1); ok {
		t.Error("phantom crash")
	}
	if m := c.Crashed(); len(m) != 1 || m[3] != 40*time.Millisecond {
		t.Errorf("Crashed = %v", m)
	}
}

func TestNilCollectorIsSafe(t *testing.T) {
	var c *trace.Collector
	c.OnSend(msg(1, 2, "x", 0), false) // must not panic
	c.OnDeliver(msg(1, 2, "x", 0))
	c.OnCrash(1, 0)
}

func TestConcurrentUse(t *testing.T) {
	c := trace.NewCollector()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.OnSend(msg(1, 2, "k", time.Duration(j)), j%3 == 0)
				c.OnDeliver(msg(1, 2, "k", time.Duration(j)))
			}
		}(i)
	}
	wg.Wait()
	if c.Sent("k") != 800 || c.Delivered("k") != 800 {
		t.Errorf("sent=%d delivered=%d", c.Sent("k"), c.Delivered("k"))
	}
}

func TestEventsReturnsCopy(t *testing.T) {
	c := trace.NewCollector()
	c.OnSend(msg(1, 2, "x", 0), false)
	evs := c.Events()
	evs[0].Kind = "mutated"
	if c.Events()[0].Kind != "x" {
		t.Error("Events exposed internal state")
	}
}

// TestEventLogAcrossChunks logs past several chunk boundaries and checks that
// the chunked log reads back exactly as one flat log would: every entry, in
// send order, with windows counted across the seams.
func TestEventLogAcrossChunks(t *testing.T) {
	const total = 3*4096 + 17 // the chunk length is 4096
	c := trace.NewCollector()
	for i := 0; i < total; i++ {
		kind := "even"
		if i%2 == 1 {
			kind = "odd"
		}
		c.OnSend(msg(dsys.ProcessID(1+i%3), 2, kind, time.Duration(i)), i%5 == 0)
	}
	evs := c.Events()
	if len(evs) != total {
		t.Fatalf("Events() has %d entries, want %d", len(evs), total)
	}
	for i, e := range evs {
		if e.At != time.Duration(i) || e.From != dsys.ProcessID(1+i%3) || e.Dropped != (i%5 == 0) {
			t.Fatalf("entry %d out of place: %+v", i, e)
		}
	}
	// A window straddling the first two seams.
	from, to := time.Duration(4000), time.Duration(8300)
	if got := c.SentBetween(from, to); got != 4300 {
		t.Errorf("SentBetween across chunks = %d, want 4300", got)
	}
	if got := c.SentBetween(from, to, "odd"); got != 2150 {
		t.Errorf("SentBetween(odd) across chunks = %d, want 2150", got)
	}
	if c.Sent("even")+c.Sent("odd") != total {
		t.Errorf("counters lost sends: %d + %d", c.Sent("even"), c.Sent("odd"))
	}
}

func TestLinkEvents(t *testing.T) {
	c := trace.NewCollector()
	c.OnLink("tcp.dial", 0, 2, 5*time.Millisecond)
	c.OnLink("tcp.drop", 1, 2, 6*time.Millisecond)
	c.OnLink("tcp.drop", 2, 1, 7*time.Millisecond)
	if got := c.LinkEvents("tcp.drop"); got != 2 {
		t.Errorf("LinkEvents(tcp.drop) = %d, want 2", got)
	}
	if got := c.LinkEvents("tcp.dial"); got != 1 {
		t.Errorf("LinkEvents(tcp.dial) = %d, want 1", got)
	}
	if got := c.LinkEvents("nonexistent"); got != 0 {
		t.Errorf("LinkEvents(nonexistent) = %d, want 0", got)
	}
	names := c.LinkEventNames()
	if len(names) != 2 || names[0] != "tcp.dial" || names[1] != "tcp.drop" {
		t.Errorf("LinkEventNames = %v", names)
	}
	log := c.LinkLog()
	if len(log) != 3 || log[1].Event != "tcp.drop" || log[1].From != 1 || log[1].To != 2 || log[1].At != 6*time.Millisecond {
		t.Errorf("LinkLog = %+v", log)
	}
	// Nil collector and counters-only collector must both be safe.
	var nilC *trace.Collector
	nilC.OnLink("tcp.dial", 0, 1, 0)
	counters := &trace.Collector{}
	counters.OnLink("tcp.reset", 0, 1, 0)
	if counters.LinkEvents("tcp.reset") != 1 || len(counters.LinkLog()) != 0 {
		t.Error("counters-only collector wrong")
	}
}

func TestLinkEventsConcurrent(t *testing.T) {
	c := trace.NewCollector()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.OnLink("tcp.break", 1, 2, time.Duration(j))
			}
		}()
	}
	wg.Wait()
	if got := c.LinkEvents("tcp.break"); got != 800 {
		t.Errorf("LinkEvents = %d, want 800", got)
	}
}
