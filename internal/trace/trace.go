// Package trace collects runtime metrics from a simulation or live run:
// per-kind message counters, optional full message logs for windowed
// analyses, and crash/decision marks. All experiments in EXPERIMENTS.md are
// computed from a Collector.
package trace

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dsys"
)

// MsgEvent is one logged message transmission.
type MsgEvent struct {
	At      time.Duration // send time
	From    dsys.ProcessID
	To      dsys.ProcessID
	Kind    string
	Payload any // the message payload (shared, do not mutate)
	Dropped bool
}

// counters is a concurrent map of named monotonic counters. The map is
// published copy-on-write behind an atomic pointer, so the hot path — bumping
// a counter whose name has been seen before, which is every message after the
// first of its kind — is two atomic loads and an atomic add, no lock. Only
// the first occurrence of a new name takes the mutex to republish the map.
// The live transport calls these from every peer writer and read loop
// concurrently; under the old single-mutex scheme that lock was measurable on
// the n²-heartbeat hot path.
type counters struct {
	mu sync.Mutex // guards map republish only
	m  atomic.Pointer[map[string]*atomic.Int64]
}

func (c *counters) add(name string, delta int64) {
	if m := c.m.Load(); m != nil {
		if ctr, ok := (*m)[name]; ok {
			ctr.Add(delta)
			return
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	old := c.m.Load()
	if old != nil {
		if ctr, ok := (*old)[name]; ok {
			ctr.Add(delta)
			return
		}
	}
	next := make(map[string]*atomic.Int64, 8)
	if old != nil {
		for k, v := range *old {
			next[k] = v
		}
	}
	ctr := new(atomic.Int64)
	ctr.Add(delta)
	next[name] = ctr
	c.m.Store(&next)
}

func (c *counters) get(name string) int {
	if m := c.m.Load(); m != nil {
		if ctr, ok := (*m)[name]; ok {
			return int(ctr.Load())
		}
	}
	return 0
}

func (c *counters) total() int {
	n := 0
	if m := c.m.Load(); m != nil {
		for _, ctr := range *m {
			n += int(ctr.Load())
		}
	}
	return n
}

func (c *counters) names() []string {
	var ks []string
	if m := c.m.Load(); m != nil {
		ks = make([]string, 0, len(*m))
		for k := range *m {
			ks = append(ks, k)
		}
	}
	sort.Strings(ks)
	return ks
}

// reset atomically replaces the counter set with an empty one.
func (c *counters) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	next := make(map[string]*atomic.Int64, 8)
	c.m.Store(&next)
}

// Collector accumulates metrics. The zero value is ready to use with
// counters only; set LogMessages before the run to retain the full message
// log (needed by windowed per-period analyses). Collector is safe for
// concurrent use so the same type serves the live runtime; the counter paths
// (OnSend/OnDeliver/OnLink with LogMessages off) are lock-free after the
// first message of each kind.
type Collector struct {
	// LogMessages retains every message in Events when true. Set before the
	// run starts.
	LogMessages bool

	sent      counters
	dropped   counters
	delivered counters
	link      counters

	// Windowed counting mode (SetCountWindow): per-kind send counts for one
	// [from, to) window, so large-n sweeps measure steady-state rates without
	// retaining a log entry per message.
	winOn          atomic.Bool
	winFrom, winTo atomic.Int64 // time.Duration nanoseconds
	sentWin        counters

	mu sync.Mutex // guards the logs below
	// events is the message log in chunks of eventChunk entries, all full
	// but the last: a log of millions of sends costs one allocation per
	// chunk and never recopies what it already holds, where one flat slice
	// doubled and recopied its way up.
	events  [][]MsgEvent
	crashes map[dsys.ProcessID]time.Duration
	linkLog []LinkEvent
	timings []Timing
}

// Timing is one experiment's runtime profile, recorded by the expt runner:
// wall-clock duration, simulator events fired, and the worker count the
// trials were fanned across.
type Timing struct {
	ID       string
	Wall     time.Duration
	Events   uint64
	Parallel int
}

// EventsPerSec returns the simulator event throughput of the run.
func (t Timing) EventsPerSec() float64 {
	if t.Wall <= 0 {
		return 0
	}
	return float64(t.Events) / t.Wall.Seconds()
}

// LinkEvent is one transport-level event on a directed link: a connection
// established, broken, or reset, a frame dropped by queue overflow, a
// malformed frame rejected, a message duplicated. Event names are defined by the
// runtime: package live uses "live.dup" (an extra copy its network model
// planned); package tcpnet uses "tcp.dial" / "tcp.dialfail" (connection
// attempts), "tcp.break" (write error), "tcp.reset" (forced reset),
// "tcp.overflow" (bounded queue shed its oldest frame), "tcp.lost" (frame
// abandoned after a failed retry), "tcp.unencodable" (payload wire cannot
// encode) and "tcp.badframe" (malformed or out-of-range frame); package
// udpnet uses the "udp." events its Config.Trace lists. Messages the network
// model drops are counted by OnSend, not here.
type LinkEvent struct {
	At    time.Duration
	Event string
	From  dsys.ProcessID
	To    dsys.ProcessID
}

// eventChunk is the length of a message-log chunk (256 KiB of MsgEvents).
const eventChunk = 4096

// logEvent appends e to the message log. Callers hold c.mu.
func (c *Collector) logEvent(e MsgEvent) {
	n := len(c.events)
	if n == 0 || len(c.events[n-1]) == eventChunk {
		// The first chunk grows from nothing, so the many short runs pay for
		// what they log; a log that fills it gets whole chunks from then on.
		var chunk []MsgEvent
		if n > 0 {
			chunk = make([]MsgEvent, 0, eventChunk)
		}
		c.events = append(c.events, chunk)
		n++
	}
	c.events[n-1] = append(c.events[n-1], e)
}

// NewCollector returns a Collector that logs full message events.
func NewCollector() *Collector {
	return &Collector{LogMessages: true}
}

// OnSend records a message send (and whether the network dropped it).
func (c *Collector) OnSend(m *dsys.Message, dropped bool) {
	if c == nil {
		return
	}
	c.sent.add(m.Kind, 1)
	if dropped {
		c.dropped.add(m.Kind, 1)
	}
	if c.winOn.Load() {
		at := int64(m.SentAt)
		if at >= c.winFrom.Load() && at < c.winTo.Load() {
			c.sentWin.add(m.Kind, 1)
		}
	}
	if c.LogMessages {
		c.mu.Lock()
		c.logEvent(MsgEvent{At: m.SentAt, From: m.From, To: m.To, Kind: m.Kind, Payload: m.Payload, Dropped: dropped})
		c.mu.Unlock()
	}
}

// SetCountWindow enables windowed counting: sends with SentAt in [from, to)
// are tallied per kind, readable through SentWithin. Unlike the LogMessages
// log — which retains an entry per message and makes an n² detector sweep at
// n=256 pay hundreds of MB for a 25-period measurement — the window costs
// O(kinds) memory regardless of traffic. Call before the run starts.
func (c *Collector) SetCountWindow(from, to time.Duration) {
	c.winFrom.Store(int64(from))
	c.winTo.Store(int64(to))
	c.sentWin.reset()
	c.winOn.Store(true)
}

// SentWithin returns the number of messages of the given kinds (all kinds
// when empty) sent inside the SetCountWindow window.
func (c *Collector) SentWithin(kinds ...string) int {
	if len(kinds) == 0 {
		return c.sentWin.total()
	}
	n := 0
	for _, k := range kinds {
		n += c.sentWin.get(k)
	}
	return n
}

// OnDeliver records a message delivery to a live process.
func (c *Collector) OnDeliver(m *dsys.Message) {
	if c == nil {
		return
	}
	c.delivered.add(m.Kind, 1)
}

// OnCrash records the crash time of a process.
func (c *Collector) OnCrash(id dsys.ProcessID, at time.Duration) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashes == nil {
		c.crashes = make(map[dsys.ProcessID]time.Duration)
	}
	c.crashes[id] = at
}

// OnLink records a transport-level event (connection lifecycle, fault
// injection, queue overflow) on the directed link from -> to. Transports
// call it; experiments and soak tests read the counters back via LinkEvents.
func (c *Collector) OnLink(event string, from, to dsys.ProcessID, at time.Duration) {
	if c == nil {
		return
	}
	c.link.add(event, 1)
	if c.LogMessages {
		c.mu.Lock()
		c.linkLog = append(c.linkLog, LinkEvent{At: at, Event: event, From: from, To: to})
		c.mu.Unlock()
	}
}

// OnTiming records one experiment's runtime profile.
func (c *Collector) OnTiming(t Timing) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.timings = append(c.timings, t)
}

// Timings returns a copy of the recorded experiment timings.
func (c *Collector) Timings() []Timing {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Timing, len(c.timings))
	copy(out, c.timings)
	return out
}

// LinkEvents returns how many transport events of the given name occurred.
func (c *Collector) LinkEvents(event string) int {
	return c.link.get(event)
}

// LinkEventNames returns all transport event names seen, sorted.
func (c *Collector) LinkEventNames() []string {
	return c.link.names()
}

// LinkLog returns a copy of the transport event log (requires LogMessages).
func (c *Collector) LinkLog() []LinkEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]LinkEvent, len(c.linkLog))
	copy(out, c.linkLog)
	return out
}

// Sent returns the number of messages of the given kind handed to the
// network (including dropped ones).
func (c *Collector) Sent(kind string) int {
	return c.sent.get(kind)
}

// Delivered returns the number of messages of the given kind delivered.
func (c *Collector) Delivered(kind string) int {
	return c.delivered.get(kind)
}

// Dropped returns the number of messages of the given kind lost in transit.
func (c *Collector) Dropped(kind string) int {
	return c.dropped.get(kind)
}

// TotalSent returns the number of messages sent across all kinds.
func (c *Collector) TotalSent() int {
	return c.sent.total()
}

// TotalDropped returns the number of messages lost in transit across all
// kinds.
func (c *Collector) TotalDropped() int {
	return c.dropped.total()
}

// Kinds returns all message kinds seen, sorted.
func (c *Collector) Kinds() []string {
	return c.sent.names()
}

// Events returns a copy of the message log (requires LogMessages).
func (c *Collector) Events() []MsgEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Concat(c.events...)
}

// SentBetween counts messages sent in [from, to) matched by kinds (all kinds
// when kinds is empty). Requires LogMessages.
func (c *Collector) SentBetween(from, to time.Duration, kinds ...string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	want := make(map[string]bool, len(kinds))
	for _, k := range kinds {
		want[k] = true
	}
	n := 0
	for _, chunk := range c.events {
		for _, e := range chunk {
			if e.At >= from && e.At < to && (len(want) == 0 || want[e.Kind]) {
				n++
			}
		}
	}
	return n
}

// CrashTime returns when id crashed, or ok=false if it never crashed.
func (c *Collector) CrashTime(id dsys.ProcessID) (time.Duration, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.crashes[id]
	return t, ok
}

// Crashed returns the set of processes that crashed.
func (c *Collector) Crashed() map[dsys.ProcessID]time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[dsys.ProcessID]time.Duration, len(c.crashes))
	for k, v := range c.crashes {
		out[k] = v
	}
	return out
}
