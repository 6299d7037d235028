// Package live is the real-time runtime: it implements the same dsys.Proc
// interface as the deterministic simulator (package sim), but tasks are
// ordinary goroutines, time is the wall clock, and message latency, loss and
// duplication are imposed by a network model evaluated on real timers — the
// same network.Network models the simulator runs — and, with a Transport,
// by real sockets too (packages tcpnet and udpnet). Algorithms
// written once against dsys.Proc therefore run unchanged on real
// concurrency.
//
// Unlike the simulator, runs are not reproducible (goroutine scheduling and
// wall-clock timing are real); the property checkers still apply via
// check.FDRecorder.AddSample.
//
// Receive dispatch follows the simulator's rule. A delivery goes to the
// earliest-spawned parked task of its destination whose matcher accepts it,
// and wakes that task's goroutine only; with no such task it is buffered.
// A receive first takes the earliest buffered match and otherwise parks. A
// parked task is not re-offered buffered messages when its matcher's answer
// changes: matchers run on arrival for parked receivers, and on the buffer
// when a receiver asks.
package live

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dsys"
	"repro/internal/network"
	"repro/internal/trace"
)

// Config parameterizes a live cluster.
type Config struct {
	// N is the number of processes.
	N int
	// Network models latency, loss, duplication and partitions. Every
	// non-self Send is planned through it, with or without a Transport: a
	// dropped message goes nowhere, and each planned copy (several for a
	// network.MultiNetwork) is handed on after its delay, to the Transport
	// when one is set, else to the destination's mailbox. Without a
	// Transport it defaults to uniform 1–5ms reliable links. With a
	// Transport, nil leaves every message to the sockets alone: Send hands
	// it over at once, without a lock, a random draw or an allocation.
	Network network.Network
	// Seed drives the network model's randomness.
	Seed int64
	// Trace receives message and crash events. Optional.
	Trace *trace.Collector
	// Log receives task debug output. Optional.
	Log io.Writer
	// Transport, if set, replaces the in-memory delivery path: every
	// non-self Send that Network does not drop is handed to it, and it
	// delivers into Cluster.Inject. The cluster starts, crashes and stops
	// it (see Transport).
	Transport Transport
}

// Transport carries a cluster's non-self messages between processes in
// place of the in-memory mailbox hand-off: package tcpnet over TCP streams,
// package udpnet over UDP datagrams, or both split by message kind
// (tcpnet.Config.Datagram). The cluster owns every ordering decision around
// it, and a transport never re-checks process ids or crash state for the
// cluster's sake:
//
//   - Start is called once, by NewCluster, before any task runs. From then
//     on the transport hands every inbound message it has validated to
//     inject (Cluster.Inject), from any goroutine, concurrently. SentAt does
//     not cross the wire; Inject stamps the arrival time.
//   - Send is called for every copy of a non-self Send that the cluster's
//     network model, if any, did not drop, with From and To in range: from
//     the sending task's goroutine, or from a delay timer's. It must not
//     block on the network and promises no delivery: a transport may drop,
//     duplicate or reorder, and protocols own their retry and suspicion
//     logic. The message is passed by value so the send path stays
//     allocation-free.
//   - Crash(id) is called once per crashed process, after the cluster has
//     marked it crashed and unless the cluster was stopped first: the
//     transport stops carrying traffic to and from id and releases what it
//     holds for it. Messages already in flight may still arrive; Inject
//     drops those addressed to id.
//   - Stop is called once, by the first Cluster.Stop, after every process
//     is marked stopped and before the cluster waits for its tasks: the
//     transport closes its sockets and waits for its goroutines. A Send or
//     a Crash racing Stop must still return.
type Transport interface {
	Start(inject func(*dsys.Message))
	Send(m dsys.Message)
	Crash(id dsys.ProcessID)
	Stop()
}

// Cluster is a set of live processes in one OS process.
type Cluster struct {
	cfg   Config
	start time.Time
	pids  []dsys.ProcessID
	procs []*lproc
	netMu sync.Mutex
	rng   *rand.Rand // the network model's source; nil until the first Plan (see netRand)
	wg    sync.WaitGroup

	// timers tracks the in-flight delayed-delivery timers (Send with a
	// positive network latency, to the mailbox or to the transport), keyed
	// by timer with the destination process as value. Crash stops the timers
	// aimed at the crashed process; Stop stops them all — otherwise every
	// pending time.AfterFunc would stay live past shutdown and fire its
	// callback into a stopped cluster.
	timersMu     sync.Mutex
	timers       map[*time.Timer]dsys.ProcessID
	timersClosed bool

	// taskSeq numbers tasks in spawn order, the receive dispatch's priority.
	taskSeq atomic.Uint64

	stopOnce sync.Once
}

// unwind is thrown inside blocking primitives to terminate a task when its
// process crashes or the cluster stops; recovered by the task wrapper.
type unwind struct{}

type lproc struct {
	c       *Cluster
	id      dsys.ProcessID
	mu      sync.Mutex
	buf     []*dsys.Message // pending messages; buf[head:] is live
	head    int
	parked  []*task // receivers waiting for a delivery, in spawn order
	crashed bool
	stopped bool
	// dead mirrors crashed||stopped for the Send fast path, which would
	// otherwise serialize every concurrent sender of a process on mu just to
	// read two booleans. Set under mu, read lock-free.
	dead atomic.Bool
	// doneClosed records, under mu, that done has been closed; Crash and
	// Stop race to kill a process, and whichever consults the flag first
	// (while holding mu) is the one that closes the channel.
	doneClosed bool
	done       chan struct{}
	rng        *rand.Rand // nil until the first draw (see randLocked)
	rngMu      sync.Mutex
}

// task is one live task: its process, its name and its state in the receive
// dispatch. timer is touched only by the task's own goroutine.
type task struct {
	p    *lproc
	name string
	seq  uint64 // spawn order: of two parked tasks accepting a delivery, the lower wins
	// match and parked are guarded by p.mu: while parked, the task is in
	// p.parked and deliveries are offered to match.
	match  dsys.Matcher
	parked bool
	// hand carries the one delivery handed to the task while it was parked,
	// or nil when its process crashed or stopped, which unwinds it. A parked
	// task receives from hand alone, cheaper than a select with done. Its
	// capacity of one lets Inject hand over under p.mu without blocking.
	hand  chan *dsys.Message
	timer *time.Timer // RecvTimeout's deadline, reused across calls
}

// killLocked marks done for closing exactly once. The caller must hold
// p.mu and must close(p.done) after unlocking iff killLocked returned true.
func (p *lproc) killLocked() bool {
	if p.doneClosed {
		return false
	}
	p.doneClosed = true
	return true
}

// NewCluster creates a live cluster of cfg.N processes.
func NewCluster(cfg Config) *Cluster {
	if cfg.N < 1 {
		panic("live: Config.N must be at least 1")
	}
	if cfg.Network == nil && cfg.Transport == nil {
		cfg.Network = network.Reliable{Latency: network.Uniform{Min: time.Millisecond, Max: 5 * time.Millisecond}}
	}
	c := &Cluster{
		cfg:    cfg,
		start:  time.Now(),
		pids:   dsys.Pids(cfg.N),
		timers: make(map[*time.Timer]dsys.ProcessID),
	}
	c.procs = make([]*lproc, cfg.N)
	for i := range c.procs {
		c.procs[i] = &lproc{c: c, id: dsys.ProcessID(i + 1), done: make(chan struct{})}
	}
	if cfg.Transport != nil {
		cfg.Transport.Start(c.Inject)
	}
	return c
}

// Spawn starts a task of process id as a goroutine.
func (c *Cluster) Spawn(id dsys.ProcessID, name string, fn dsys.TaskFunc) {
	t := &task{p: c.proc(id), name: name, seq: c.taskSeq.Add(1), hand: make(chan *dsys.Message, 1)}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(unwind); !ok {
					panic(r)
				}
			}
		}()
		fn(taskView{t})
	}()
}

// netRand returns the network model's source, seeding it on first use; the
// caller holds netMu. Seeding fills a 607-word state table, and a mesh with
// no model never plans a send, so the n+1 sources are paid for only when
// drawn from, as the simulator does (sim.Kernel.netRand). The seed depends
// only on the configuration and the draw order is unchanged.
func (c *Cluster) netRand() *rand.Rand {
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(c.cfg.Seed))
	}
	return c.rng
}

// Crash permanently crashes process id: its tasks are unwound at their next
// blocking primitive (a parked one at once) and its messages stop flowing. The first Crash of id
// reaches the transport, unless the cluster was already stopped.
func (c *Cluster) Crash(id dsys.ProcessID) {
	p := c.proc(id)
	p.mu.Lock()
	already, stopped := p.crashed, p.stopped
	p.crashed = true
	p.dead.Store(true)
	p.buf, p.head = nil, 0
	p.unparkAllLocked()
	shouldClose := p.killLocked()
	p.mu.Unlock()
	if shouldClose {
		close(p.done)
	}
	if already {
		return
	}
	if c.cfg.Transport != nil && !stopped {
		c.cfg.Transport.Crash(id)
	}
	c.stopTimers(func(to dsys.ProcessID) bool { return to == id })
	c.cfg.Trace.OnCrash(id, time.Since(c.start))
}

// stopTimers stops and forgets every tracked delay timer whose destination
// matches. When closeAll is requested via Stop, the map is also marked closed
// so no further timers are scheduled.
func (c *Cluster) stopTimers(match func(to dsys.ProcessID) bool) {
	c.timersMu.Lock()
	defer c.timersMu.Unlock()
	for tm, to := range c.timers {
		if match(to) {
			tm.Stop()
			delete(c.timers, tm)
		}
	}
}

// PendingDelayTimers reports how many delayed-delivery timers are currently
// outstanding — zero after Stop, and zero of a crashed process's inbound
// messages. Exposed for leak regression tests.
func (c *Cluster) PendingDelayTimers() int {
	c.timersMu.Lock()
	defer c.timersMu.Unlock()
	return len(c.timers)
}

// Crashed reports whether id has crashed.
func (c *Cluster) Crashed(id dsys.ProcessID) bool {
	p := c.proc(id)
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.crashed
}

// Stop unwinds every task, drops every process's mailbox as Crash does,
// stops the transport and waits for the tasks to exit. Tasks stuck in
// non-blocking user code are only reaped at their next primitive call.
func (c *Cluster) Stop() {
	c.stopOnce.Do(func() {
		for _, p := range c.procs {
			p.mu.Lock()
			p.stopped = true
			p.dead.Store(true)
			p.buf, p.head = nil, 0
			p.unparkAllLocked()
			shouldClose := p.killLocked()
			p.mu.Unlock()
			if shouldClose {
				close(p.done)
			}
		}
		c.timersMu.Lock()
		c.timersClosed = true
		c.timersMu.Unlock()
		c.stopTimers(func(dsys.ProcessID) bool { return true })
		if c.cfg.Transport != nil {
			c.cfg.Transport.Stop()
		}
	})
	c.wg.Wait()
}

// Now returns the cluster-relative wall time.
func (c *Cluster) Now() time.Duration { return time.Since(c.start) }

func (c *Cluster) proc(id dsys.ProcessID) *lproc {
	if id < 1 || int(id) > len(c.procs) {
		panic(fmt.Sprintf("live: invalid process id %v", id))
	}
	return c.procs[id-1]
}

// taskView implements dsys.Proc for one live task.
type taskView struct{ t *task }

var _ dsys.Proc = taskView{}

func (v taskView) ID() dsys.ProcessID    { return v.t.p.id }
func (v taskView) N() int                { return len(v.t.p.c.procs) }
func (v taskView) All() []dsys.ProcessID { return v.t.p.c.pids }
func (v taskView) Now() time.Duration    { return time.Since(v.t.p.c.start) }

func (v taskView) Rand() *rand.Rand {
	// The per-process source is shared by its tasks; per-call locking makes
	// access safe at the cost of determinism (which live does not promise
	// anyway). A fresh Rand wrapping a locked source would allocate per
	// call; instead we expose the shared one guarded by the process lock
	// through lockedRand.
	return rand.New(&lockedSource{p: v.t.p})
}

// lockedSource guards the process source. It implements rand.Source64 so
// that rand.Rand methods backed by Uint64 (Int63n fast path, Float64, ...)
// take one locked call instead of falling back to two Int63 draws.
type lockedSource struct{ p *lproc }

var _ rand.Source64 = (*lockedSource)(nil)

func (s *lockedSource) Int63() int64 {
	s.p.rngMu.Lock()
	defer s.p.rngMu.Unlock()
	return s.p.randLocked().Int63()
}

func (s *lockedSource) Uint64() uint64 {
	s.p.rngMu.Lock()
	defer s.p.rngMu.Unlock()
	return s.p.randLocked().Uint64()
}

func (s *lockedSource) Seed(seed int64) {
	s.p.rngMu.Lock()
	defer s.p.rngMu.Unlock()
	s.p.rng = rand.New(rand.NewSource(seed))
}

// randLocked returns the process source, seeding it on first use (see
// Cluster.netRand); the caller holds rngMu.
func (p *lproc) randLocked() *rand.Rand {
	if p.rng == nil {
		p.rng = rand.New(rand.NewSource(p.c.cfg.Seed ^ int64(0x9e3779b97f4a7c15*uint64(p.id))))
	}
	return p.rng
}

func (v taskView) Send(to dsys.ProcessID, kind string, payload any) {
	p := v.t.p
	c := p.c
	// Lock-free liveness check: a Send racing a concurrent Crash could
	// already slip past the old mutexed check before the crash landed, so the
	// relaxed read changes nothing observable — crashed destinations drop the
	// message at Inject regardless. A send to a process that does not exist
	// goes nowhere.
	if p.dead.Load() || to < 1 || int(to) > len(c.procs) {
		return
	}
	now := time.Since(c.start)
	if c.cfg.Transport != nil && to != p.id {
		// Stack-built message, handed over by value: the transport copies the
		// fields into its queue slot, so this path allocates nothing.
		m := dsys.Message{From: p.id, To: to, Kind: kind, Payload: payload, SentAt: now}
		if c.cfg.Network != nil {
			c.route(m)
			return
		}
		c.cfg.Trace.OnSend(&m, false)
		c.cfg.Transport.Send(m)
		return
	}
	if to == p.id {
		m := &dsys.Message{From: p.id, To: to, Kind: kind, Payload: payload, SentAt: now}
		c.cfg.Trace.OnSend(m, false)
		c.Inject(m)
		return
	}
	c.route(dsys.Message{From: p.id, To: to, Kind: kind, Payload: payload, SentAt: now})
}

// route plans a non-self message through the network model and hands each
// copy it keeps on (see deliver): at once when its delay is not positive,
// else from a tracked timer. A network.MultiNetwork may plan several copies,
// each counted as a "live.dup" link event past the first, as the simulator
// delivers them.
func (c *Cluster) route(m dsys.Message) {
	var one [1]time.Duration
	copies := one[:0]
	c.netMu.Lock()
	if mn, ok := c.cfg.Network.(network.MultiNetwork); ok {
		copies = mn.PlanCopies(m.From, m.To, m.Kind, m.SentAt, c.netRand())
	} else if delay, drop := c.cfg.Network.Plan(m.From, m.To, m.Kind, m.SentAt, c.netRand()); !drop {
		copies = append(copies, delay)
	}
	c.netMu.Unlock()
	c.cfg.Trace.OnSend(&m, len(copies) == 0)
	for i, delay := range copies {
		if i > 0 {
			c.cfg.Trace.OnLink("live.dup", m.From, m.To, m.SentAt)
		}
		if delay <= 0 {
			c.deliver(m)
		} else {
			c.deliverAfter(delay, m)
		}
	}
}

// deliver hands one planned copy of m on: to the transport when one is set,
// else into the destination's mailbox.
func (c *Cluster) deliver(m dsys.Message) {
	if c.cfg.Transport != nil {
		c.cfg.Transport.Send(m)
		return
	}
	in := m // only the mailbox copy goes to the heap
	c.Inject(&in)
}

// deliverAfter delivers m after the network delay on a tracked timer, so
// Crash/Stop can cancel it. The callback takes timersMu before reading tm,
// which both publishes the handle (the callback can fire before AfterFunc
// returns) and orders it against concurrent stopTimers calls.
func (c *Cluster) deliverAfter(delay time.Duration, m dsys.Message) {
	c.timersMu.Lock()
	defer c.timersMu.Unlock()
	if c.timersClosed {
		return
	}
	var tm *time.Timer
	tm = time.AfterFunc(delay, func() {
		c.timersMu.Lock()
		_, live := c.timers[tm]
		delete(c.timers, tm)
		c.timersMu.Unlock()
		if live {
			c.deliver(m)
		}
	})
	c.timers[tm] = m.To
}

// Inject delivers a message into the destination process's mailbox,
// bypassing the network model. It is the receiving end of every delivery
// path (network timers, transports, tests), and the one place a message is
// dropped for a destination that does not exist, has crashed or has
// stopped. A message without a send time (SentAt does not cross a
// transport's wire) is stamped with its arrival time.
//
// The message goes to the earliest-spawned parked task whose matcher accepts
// it, and only that task's goroutine wakes; otherwise it is buffered. The
// matchers run here, under the destination's lock, as they do when a
// receiver scans the buffer.
func (c *Cluster) Inject(m *dsys.Message) {
	if m.To < 1 || int(m.To) > len(c.procs) {
		return
	}
	if m.SentAt == 0 {
		m.SentAt = time.Since(c.start)
	}
	dst := c.procs[m.To-1]
	dst.mu.Lock()
	defer dst.mu.Unlock()
	if dst.crashed || dst.stopped {
		return
	}
	c.cfg.Trace.OnDeliver(m)
	for i, t := range dst.parked {
		if t.match.Match(m) {
			dst.unparkAt(i)
			t.hand <- m
			return
		}
	}
	dst.buf = append(dst.buf, m)
}

func (v taskView) Recv(match dsys.Matcher) (*dsys.Message, bool) {
	t := v.t
	if m := t.takeOrPark(match, true); m != nil {
		return m, true
	}
	if m := <-t.hand; m != nil {
		return m, true
	}
	panic(unwind{})
}

// RecvTimeout is Recv with a deadline. A non-positive d only takes an already
// buffered match and starts no timer.
func (v taskView) RecvTimeout(match dsys.Matcher, d time.Duration) (*dsys.Message, bool) {
	t := v.t
	deadline := time.Now().Add(d)
	if m := t.takeOrPark(match, d > 0); m != nil || d <= 0 {
		return m, m != nil
	}
	tm := t.timer
	if tm == nil {
		tm = time.NewTimer(d)
		t.timer = tm
	} else {
		tm.Reset(d)
	}
	for {
		select {
		case m := <-t.hand:
			t.stopTimer()
			if m == nil {
				panic(unwind{})
			}
			return m, true
		case <-tm.C:
			if rest := time.Until(deadline); rest > 0 {
				// An expiry left over from an earlier call's timer.
				tm.Reset(rest)
				continue
			}
			if t.expire() {
				return nil, false
			}
			// A delivery was handed over before the deadline won the lock.
			return <-t.hand, true
		}
	}
}

// takeOrPark removes and returns the earliest buffered message matching
// match. With none, it parks t on match if park is set and returns nil. A
// task of a dead process is unwound.
func (t *task) takeOrPark(match dsys.Matcher, park bool) *dsys.Message {
	p := t.p
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.crashed || p.stopped {
		panic(unwind{})
	}
	if m := p.takeLocked(match); m != nil {
		return m
	}
	if park {
		t.match, t.parked = match, true
		i := len(p.parked)
		for i > 0 && p.parked[i-1].seq > t.seq {
			i--
		}
		p.parked = append(p.parked, nil)
		copy(p.parked[i+1:], p.parked[i:])
		p.parked[i] = t
	}
	return nil
}

// expire settles a deadline against a racing hand-off under p.mu. It reports
// true, and unparks t, if no delivery reached t first; otherwise the
// delivery is in t.hand.
func (t *task) expire() bool {
	p := t.p
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.crashed || p.stopped {
		panic(unwind{})
	}
	if !t.parked {
		return false
	}
	for i, q := range p.parked {
		if q == t {
			p.unparkAt(i)
			break
		}
	}
	return true
}

// stopTimer stops the deadline timer and drains an expiry that beat Stop.
func (t *task) stopTimer() {
	if !t.timer.Stop() {
		select {
		case <-t.timer.C:
		default:
		}
	}
}

// unparkAllLocked releases every parked task of a crashed or stopped
// process: each is handed nil, which unwinds it.
func (p *lproc) unparkAllLocked() {
	for _, t := range p.parked {
		t.match, t.parked = nil, false
		t.hand <- nil
	}
	p.parked = nil
}

// unparkAt removes the parked task at index i, keeping spawn order.
func (p *lproc) unparkAt(i int) {
	t := p.parked[i]
	t.match, t.parked = nil, false
	copy(p.parked[i:], p.parked[i+1:])
	p.parked[len(p.parked)-1] = nil
	p.parked = p.parked[:len(p.parked)-1]
}

// mailboxKeep is the largest capacity a drained mailbox keeps. It sits above
// the backlog of a busy replica (tens of messages), so steady load reuses
// one array; a flood grows the array far past that, and the process would
// otherwise keep the flood's array for the rest of its life.
const mailboxKeep = 256

// takeLocked removes and returns the first buffered message matching match.
func (p *lproc) takeLocked(match dsys.Matcher) *dsys.Message {
	for i := p.head; i < len(p.buf); i++ {
		m := p.buf[i]
		if !match.Match(m) {
			continue
		}
		if i == p.head {
			// Head take — the overwhelmingly common case for a receiver
			// draining in arrival order. Advancing the head instead of
			// shifting keeps Recv O(1); the old per-take memmove of the
			// whole backlog was the live mesh's throughput ceiling.
			p.buf[i] = nil
			p.head++
		} else {
			copy(p.buf[i:], p.buf[i+1:])
			// Nil the vacated tail slot: the shift leaves a stale duplicate
			// of the last pointer there, which would keep the message alive
			// past its consumption.
			p.buf[len(p.buf)-1] = nil
			p.buf = p.buf[:len(p.buf)-1]
		}
		if p.head == len(p.buf) {
			// Drained: reuse the array from the start, unless a burst grew it
			// past mailboxKeep.
			p.buf, p.head = p.buf[:0], 0
			if cap(p.buf) > mailboxKeep {
				p.buf = nil
			}
		} else if p.head >= 1024 && p.head*2 >= len(p.buf) {
			// Compact occasionally so a never-empty mailbox cannot grow its
			// dead prefix without bound. Amortized O(1) per take.
			n := copy(p.buf, p.buf[p.head:])
			for j := n; j < len(p.buf); j++ {
				p.buf[j] = nil
			}
			p.buf, p.head = p.buf[:n], 0
		}
		return m
	}
	return nil
}

func (v taskView) Sleep(d time.Duration) {
	// time.After would leave its timer live until expiry even when the task
	// is unwound; with per-period detector sleeps that leaks a timer per
	// call. Stop the timer explicitly on both exits.
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-v.t.p.done:
		panic(unwind{})
	}
}

func (v taskView) Spawn(name string, fn dsys.TaskFunc) {
	p := v.t.p
	p.mu.Lock()
	dead := p.crashed || p.stopped
	p.mu.Unlock()
	if dead {
		panic(unwind{})
	}
	p.c.Spawn(p.id, name, fn)
}

func (v taskView) Logf(format string, args ...any) {
	p := v.t.p
	w := p.c.cfg.Log
	if w == nil {
		return
	}
	fmt.Fprintf(w, "%10v %v/%s: %s\n", time.Since(p.c.start).Round(time.Millisecond), p.id, v.t.name, fmt.Sprintf(format, args...))
}
