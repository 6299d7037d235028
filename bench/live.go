package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/dsys"
	"repro/internal/fd"
	"repro/internal/fd/ring"
	"repro/internal/tcpnet"
	"repro/internal/trace"
)

const (
	liveN       = 3
	ringPeriod  = 10 * time.Millisecond
	payloadLen  = 16
	ackDeadline = 2 * time.Second // a log that stands still this long has failed what it still owes
)

// epoch anchors every harness timestamp; time.Since reads the monotonic
// clock, so samples are immune to wall-clock steps.
var epoch = time.Now()

func nowNs() int64 { return int64(time.Since(epoch)) }

// probedDetector wraps a replica's ◇C module — the interface core.Config
// already accepts — to time every query the layers above make. It forwards
// the leadership-deferral hook so core behaves exactly as with the bare
// detector.
type probedDetector struct {
	inner fd.EventuallyConsistent
	calls atomic.Int64
	ns    atomic.Int64
}

func (d *probedDetector) Suspected() fd.Set {
	t := time.Now()
	s := d.inner.Suspected()
	d.ns.Add(int64(time.Since(t)))
	d.calls.Add(1)
	return s
}

func (d *probedDetector) Trusted() dsys.ProcessID {
	t := time.Now()
	q := d.inner.Trusted()
	d.ns.Add(int64(time.Since(t)))
	d.calls.Add(1)
	return q
}

func (d *probedDetector) SetReadiness(fn func() bool) {
	if ld, ok := d.inner.(fd.LeadershipDeferrer); ok {
		ld.SetReadiness(fn)
	}
}

// liveCfg shapes one in-process TCP mesh of replicas.
type liveCfg struct {
	maxBatch, pipeline int // 0 = core defaults
	traced             bool
}

// liveCluster is an n=3 tcpnet loopback mesh running ring ◇C + core on every
// process, with the harness's Apply hook installed at each replica.
type liveCluster struct {
	cfg     liveCfg
	mesh    *tcpnet.Mesh
	col     *trace.Collector // nil unless traced
	reps    [liveN]*core.Replica
	rings   [liveN]*ring.Detector
	probes  [liveN]*probedDetector // nil unless traced
	clients [liveN]*client         // the client attached to each replica, if any
	applied [liveN]atomic.Int64    // commands applied at each replica
	// slotApply[i] is when replica i+1 first applied each slot, on the
	// cluster clock (traced runs only; written by that replica's driver).
	slotApply [liveN]map[int]time.Duration
	// clockBase converts harness time to the cluster clock of the log.
	clockBase int64
}

// newLiveCluster builds the mesh and starts the replicas; it returns once
// every replica exists. Connections are dialled lazily by the first sends.
func newLiveCluster(cfg liveCfg) (*liveCluster, error) {
	lc := &liveCluster{cfg: cfg}
	if cfg.traced {
		lc.col = trace.NewCollector()
	}
	mesh, err := tcpnet.New(tcpnet.Config{N: liveN, Trace: lc.col})
	if err != nil {
		return nil, err
	}
	lc.mesh = mesh
	lc.clockBase = nowNs() - int64(mesh.Cluster().Now())
	var wg sync.WaitGroup
	for _, id := range dsys.Pids(liveN) {
		i := int(id) - 1
		if cfg.traced {
			lc.slotApply[i] = map[int]time.Duration{}
		}
		wg.Add(1)
		mesh.Spawn(id, "replica", func(p dsys.Proc) {
			defer wg.Done()
			rd := ring.Start(p, ring.Options{Period: ringPeriod})
			lc.rings[i] = rd
			var det fd.EventuallyConsistent = rd
			if cfg.traced {
				lc.probes[i] = &probedDetector{inner: rd}
				det = lc.probes[i]
			}
			lc.reps[i] = core.StartReplica(p, core.Config{
				Detector: det,
				// The settings cmd/ecnode deploys with.
				Consensus: consensus.Options{Poll: 2 * time.Millisecond, ProbeAfter: 25},
				Apply:     lc.applyHook(i),
				MaxBatch:  cfg.maxBatch,
				Pipeline:  cfg.pipeline,
			})
		})
	}
	wg.Wait()
	return lc, nil
}

// applyHook is the Apply callback of replica i+1: it counts, stamps slots in
// traced runs, and acknowledges the local client's own commands.
func (lc *liveCluster) applyHook(i int) func(int, core.Command) {
	self := dsys.ProcessID(i + 1)
	return func(slot int, cmd core.Command) {
		lc.applied[i].Add(1)
		if m := lc.slotApply[i]; m != nil {
			if _, seen := m[slot]; !seen {
				m[slot] = time.Duration(nowNs() - lc.clockBase)
			}
		}
		if cmd.Origin == self {
			if cl := lc.clients[i]; cl != nil {
				cl.onApply(cmd.Seq)
			}
		}
	}
}

// detector returns the module the harness should query at process id: the
// timed wrapper when there is one, so harness polls are costed too.
func (lc *liveCluster) detector(id dsys.ProcessID) fd.EventuallyConsistent {
	if p := lc.probes[id-1]; p != nil {
		return p
	}
	return lc.rings[id-1]
}

// client is one load generator attached to one replica. Its own commands
// apply at that replica in Seq order, so the in-flight ones always form a
// contiguous window and a ring indexed by Seq holds their send times.
type client struct {
	id   dsys.ProcessID
	rep  *core.Replica
	seed int64

	sentAt []int64 // ring by Seq: when the command was due (open loop) or sent
	inWin  []bool  // ring by Seq: whether submit counted the command as attempted
	mask   int64
	sem    chan struct{} // closed-loop window tokens; nil for an open loop

	submitted int64   // commands submitted so far (generator goroutine only)
	sentInWin int64   // of those, due inside the measured window: the attempted operations
	allDue    []int64 // every due time by Seq-1 (traced runs)

	// The measured window, in harness time; operations due in it are the
	// attempted ones. Only submit compares a due time against it, and onApply
	// reads submit's verdict from inWin: the harness moves the bounds while
	// commands are in flight, and two readings of them could disagree on a
	// command due within nanoseconds of a bound, which would then count as
	// attempted and never as acknowledged.
	from, until atomic.Int64

	// Written by the replica's driver task (the only caller of onApply).
	acked     atomic.Int64 // highest Seq applied at the origin
	inWindow  int64        // applies that landed inside the window
	ackedWin  int64        // applies of commands due inside the window
	lat       []int64      // their latencies, ns
	latAt     []int64      // and when each was applied, harness time
	crashAt   atomic.Int64 // harness time of the injected crash; 0 = none yet
	recovered atomic.Int64 // apply time of the first command due after crashAt

	submitNs []int64 // duration of each Submit call (traced runs)
	lateNs   []int64 // how late each open-loop send ran
}

// newClient attaches a client to replica id. backlog bounds the commands it
// may have in flight (at most every command its open loop sends), capacity
// the latency samples it keeps, and window, if positive, is the closed loop's
// number of outstanding commands.
func newClient(lc *liveCluster, id dsys.ProcessID, seed int64, backlog, capacity, window int) *client {
	// Twice the backlog, so a send can never land on an unacknowledged slot.
	size := int64(1)
	for size < 2*int64(backlog) {
		size <<= 1
	}
	cl := &client{
		id: id, rep: lc.reps[id-1], seed: seed,
		sentAt: make([]int64, size), inWin: make([]bool, size), mask: size - 1,
		lat: make([]int64, 0, capacity), latAt: make([]int64, 0, capacity),
	}
	if window > 0 {
		cl.sem = make(chan struct{}, window)
	}
	if lc.cfg.traced {
		cl.submitNs = make([]int64, 0, capacity)
		cl.allDue = make([]int64, 0, capacity)
	}
	// Closed until the harness opens the measured window.
	cl.from.Store(math.MaxInt64)
	cl.until.Store(math.MaxInt64)
	lc.clients[id-1] = cl
	return cl
}

// payloadFor is the generated input of the k-th command of origin id: 8
// bytes naming it, 8 seeded bytes. The log check regenerates and compares.
func payloadFor(seed int64, id dsys.ProcessID, k int64) []byte {
	b := make([]byte, payloadLen)
	binary.LittleEndian.PutUint32(b, uint32(id))
	binary.LittleEndian.PutUint32(b[4:], uint32(k))
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(id)<<48 + uint64(k)
	x ^= x >> 31
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 29
	binary.LittleEndian.PutUint64(b[8:], x)
	return b
}

// submit sends the next command, stamped with the time it was due.
func (cl *client) submit(due int64) {
	k := cl.submitted
	cl.sentAt[k&cl.mask] = due
	in := due >= cl.from.Load() && due < cl.until.Load()
	cl.inWin[k&cl.mask] = in
	if in {
		cl.sentInWin++
	}
	if cl.allDue != nil && len(cl.allDue) < cap(cl.allDue) {
		cl.allDue = append(cl.allDue, due)
	}
	payload := payloadFor(cl.seed, cl.id, k)
	var t0 time.Time
	if cl.submitNs != nil {
		t0 = time.Now()
	}
	cmd := cl.rep.Submit(payload)
	if cl.submitNs != nil && len(cl.submitNs) < cap(cl.submitNs) {
		cl.submitNs = append(cl.submitNs, int64(time.Since(t0)))
	}
	if cmd.Seq != k+1 {
		panic(fmt.Sprintf("bench: client %v is not the only submitter at its replica (Seq %d, want %d)", cl.id, cmd.Seq, k+1))
	}
	cl.submitted = k + 1
}

// onApply acknowledges the client's command seq; it runs on the replica's
// driver task and never blocks.
func (cl *client) onApply(seq int64) {
	now := nowNs()
	due := cl.sentAt[(seq-1)&cl.mask]
	counted := cl.inWin[(seq-1)&cl.mask]
	cl.acked.Store(seq)
	if now >= cl.from.Load() && now < cl.until.Load() {
		cl.inWindow++
	}
	if counted {
		cl.ackedWin++
		if len(cl.lat) < cap(cl.lat) {
			cl.lat = append(cl.lat, now-due)
			cl.latAt = append(cl.latAt, now)
		}
	}
	if c := cl.crashAt.Load(); c != 0 && due >= c && cl.recovered.Load() == 0 {
		cl.recovered.Store(now)
	}
	if cl.sem != nil {
		select {
		case <-cl.sem:
		default:
		}
	}
}

// runClosed keeps the window full until stop closes.
func (cl *client) runClosed(stop <-chan struct{}) {
	for {
		select {
		case cl.sem <- struct{}{}:
			cl.submit(nowNs())
		case <-stop:
			return
		}
	}
}

// runOpen sends per commands every interval, on schedule whatever the system
// does, until stop closes; each is timed from the instant it was due. With a
// random source the gaps are exponential with mean interval (Poisson
// arrivals) instead of constant.
func (cl *client) runOpen(interval time.Duration, per int, gaps *rand.Rand, stop <-chan struct{}) {
	next := nowNs()
	for {
		select {
		case <-stop:
			return
		default:
		}
		if wait := next - nowNs(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		if len(cl.lateNs) < cap(cl.lateNs) {
			cl.lateNs = append(cl.lateNs, nowNs()-next)
		}
		for i := 0; i < per; i++ {
			cl.submit(next)
		}
		if gaps != nil {
			next += int64(gaps.ExpFloat64() * float64(interval))
		} else {
			next += int64(interval)
		}
	}
}

// pollUntil checks cond every millisecond until it reports done, and gives up
// once it has polled for deadline's worth of milliseconds without progress —
// the second value cond returns — changing. Two things make this the right
// clock on a box that is a share of a busy machine. Polls are counted, not
// wall time: when the host takes the CPU away, the program under test stands
// still for exactly as long as the harness does. And the budget restarts
// whenever the program moves: when the host slows everything several-fold for
// a while, an open loop's backlog takes more than the deadline to drain, and
// its commands are late (their latencies say so), not lost.
func pollUntil(deadline time.Duration, cond func() (done bool, progress int64)) {
	budget := int(deadline / time.Millisecond)
	last := int64(-1)
	for polls := budget; polls > 0; polls-- {
		done, progress := cond()
		if done {
			return
		}
		if progress != last {
			last, polls = progress, budget
		}
		time.Sleep(time.Millisecond)
	}
}

// awaitAcks waits until every submitted command of every client has been
// applied at its origin, or no client is acknowledged anything for deadline.
func awaitAcks(clients []*client, deadline time.Duration) {
	pollUntil(deadline, func() (bool, int64) {
		done, acked := true, int64(0)
		for _, cl := range clients {
			a := cl.acked.Load()
			acked += a
			done = done && a >= cl.submitted
		}
		return done, acked
	})
}

// awaitQuiescence waits until the surviving replicas have all applied the
// same number of commands, or none applies anything for deadline. It follows
// awaitAcks, so some survivor has applied the whole log by then and equal
// means complete.
func (lc *liveCluster) awaitQuiescence(crashed dsys.ProcessID, deadline time.Duration) {
	pollUntil(deadline, func() (bool, int64) {
		same, first, applied := true, int64(-1), int64(0)
		for _, id := range dsys.Pids(liveN) {
			if id == crashed {
				continue
			}
			a := lc.applied[id-1].Load()
			applied += a
			if first < 0 {
				first = a
			}
			same = same && a == first
		}
		return same, applied
	})
}

// awaitAccuracy waits until checkDetectors would pass, or deadline passes.
// ◇C's accuracy is eventual: a suspicion raised by a stall in the last
// milliseconds of load is retracted by the next beat, one period later, and
// stopping the mesh before that beat would freeze the mistake in place.
func (lc *liveCluster) awaitAccuracy(crashed dsys.ProcessID, deadline time.Duration) {
	pollUntil(deadline, func() (bool, int64) {
		probe := newReport("", 0, false)
		checkDetectors(probe, lc.suspectors(crashed), crashed)
		return len(probe.Problems) == 0, 0
	})
}

// awaitReady submits one command through every client and waits until each
// is applied: connections are dialled, the leader is agreed on, and a first
// instance has decided. These commands precede every measured window.
func (lc *liveCluster) awaitReady(clients []*client) error {
	for _, cl := range clients {
		cl.submit(nowNs())
	}
	awaitAcks(clients, 10*time.Second)
	for _, cl := range clients {
		if cl.acked.Load() < cl.submitted {
			return fmt.Errorf("replica %v did not commit its first command within 10s", cl.id)
		}
	}
	return nil
}

// heapLive forces a collection and returns the bytes of live heap objects.
func heapLive() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// checkLogs verifies the invariants the paper's stack owes its users, on the
// applied logs of the surviving replicas: prefix agreement, per-origin FIFO
// with strictly increasing Seq, generated payloads intact, and every
// acknowledged command present at every survivor. It returns the number of
// acknowledged commands missing somewhere, and records whole-run violations
// as problems.
func checkLogs(r *report, logs map[dsys.ProcessID][]core.AppliedEntry, acked map[dsys.ProcessID]int64, seed int64) (missing int64) {
	var ref []core.AppliedEntry
	var refID dsys.ProcessID
	for id, log := range logs {
		if len(log) > len(ref) || refID == 0 {
			ref, refID = log, id
		}
	}
	for id, log := range logs {
		for k := range log {
			a, b := log[k], ref[k]
			if a.Slot != b.Slot || a.Cmd.Origin != b.Cmd.Origin || a.Cmd.Seq != b.Cmd.Seq {
				r.problemf("logs of %v and %v diverge at entry %d: slot %d %v/%d vs slot %d %v/%d",
					id, refID, k, a.Slot, a.Cmd.Origin, a.Cmd.Seq, b.Slot, b.Cmd.Origin, b.Cmd.Seq)
				r.Invalid = true
				break
			}
		}
	}
	last := map[dsys.ProcessID]int64{}
	lastSlot := 0
	for k, e := range ref {
		if e.Slot < lastSlot {
			r.problemf("log of %v: slot goes backwards at entry %d (%d after %d)", refID, k, e.Slot, lastSlot)
			r.Invalid = true
			break
		}
		lastSlot = e.Slot
		if e.Cmd.Seq != last[e.Cmd.Origin]+1 {
			r.problemf("log of %v: origin %v Seq %d follows %d at entry %d (per-origin FIFO broken)",
				refID, e.Cmd.Origin, e.Cmd.Seq, last[e.Cmd.Origin], k)
			r.Invalid = true
			break
		}
		last[e.Cmd.Origin] = e.Cmd.Seq
		got, _ := e.Cmd.Payload.([]byte)
		if !bytes.Equal(got, payloadFor(seed, e.Cmd.Origin, e.Cmd.Seq-1)) {
			r.problemf("log of %v: payload of %v/%d is not the generated one", refID, e.Cmd.Origin, e.Cmd.Seq)
			r.Invalid = true
			break
		}
	}
	// With Seq contiguous from 1, "every acknowledged command is present" is
	// "each survivor holds at least acked[origin] commands of that origin".
	for id, log := range logs {
		have := map[dsys.ProcessID]int64{}
		for _, e := range log {
			have[e.Cmd.Origin]++
		}
		for origin, n := range acked {
			if have[origin] < n {
				missing += n - have[origin]
				r.problemf("replica %v holds %d of the %d acknowledged commands of %v", id, have[origin], n, origin)
			}
		}
	}
	return missing
}

// converged reports, for the surviving processes' ◇C modules after victim
// crashed, whether every one suspects the victim and whether they all trust
// the same process other than the victim.
func converged(dets []fd.EventuallyConsistent, victim dsys.ProcessID) (detected, led bool) {
	detected, led = true, true
	leader := dsys.None
	for _, d := range dets {
		if !d.Suspected().Has(victim) {
			detected = false
		}
		if t := d.Trusted(); leader == dsys.None {
			leader = t
		} else if t != leader {
			led = false
		}
	}
	return detected, led && leader != victim && leader != dsys.None
}

// checkDetectors verifies the ◇C outcome at the end of a run: the crashed
// process (if any) is suspected by every survivor and nobody else is.
func checkDetectors(r *report, dets map[dsys.ProcessID]fd.Suspector, crashed dsys.ProcessID) {
	for id, d := range dets {
		for _, q := range d.Suspected().Members() {
			if q != crashed {
				r.problemf("%v still suspects the correct process %v at the end", id, q)
			}
		}
		if crashed != dsys.None && !d.Suspected().Has(crashed) {
			r.problemf("%v does not suspect the crashed %v at the end", id, crashed)
		}
	}
}

// survivorLogs stops nothing and copies the applied logs of every process
// but crashed, timing one Applied() call.
func (lc *liveCluster) survivorLogs(crashed dsys.ProcessID) (logs map[dsys.ProcessID][]core.AppliedEntry, callMs float64) {
	logs = map[dsys.ProcessID][]core.AppliedEntry{}
	for _, id := range dsys.Pids(liveN) {
		if id == crashed {
			continue
		}
		t := time.Now()
		logs[id] = lc.reps[id-1].Applied()
		if callMs == 0 {
			callMs = msOf(float64(time.Since(t)))
		}
	}
	return logs, callMs
}

func (lc *liveCluster) suspectors(crashed dsys.ProcessID) map[dsys.ProcessID]fd.Suspector {
	out := map[dsys.ProcessID]fd.Suspector{}
	for _, id := range dsys.Pids(liveN) {
		if id != crashed {
			out[id] = lc.rings[id-1]
		}
	}
	return out
}
