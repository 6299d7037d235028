// Package core ties the paper's pieces together into the service a
// downstream user would actually deploy: a crash-tolerant replicated log
// (state machine replication) built from an eventually consistent (◇C)
// failure detector, Reliable Broadcast, and the paper's ◇C consensus
// algorithm run once per log slot.
//
// Each process runs a Replica. Commands submitted at any replica are ordered
// by consensus and applied, in the same order, at every correct replica.
// Because the consensus algorithm exploits the ◇C leader, the common case
// costs one consensus round per slot, coordinated by the detector's stable
// leader — no rotating through crashed or slow coordinators.
//
// Throughput comes from amortizing and overlapping that round:
//
//   - Batching: a slot carries a Batch of commands, not one command. Submit
//     appends to a pending buffer; when a replica opens a slot for its own
//     traffic it proposes the whole buffered prefix (capped by
//     Config.MaxBatch and by a 1 MiB payload estimate), so one consensus
//     round commits dozens of client operations.
//   - Pipelining: a replica may keep up to Config.Pipeline consensus
//     instances open at once — slot k+1 starts before slot k decides.
//     Decisions arriving out of slot order are parked and applied strictly
//     in slot order, so the state machine is unaffected.
//
// Slots are driven lazily: a replica with pending commands announces the
// slot to the others (a "kick" carrying its proposed batch), so idle
// replicas join the instance proposing the kicker's batch rather than a
// no-op; consequently every decided slot carries real commands. Replicas
// that learn a slot's outcome only from the decision broadcast (they were
// busy elsewhere when the instance ran) fast-forward through it without
// sending a message.
//
// The commit path is event-driven end to end: Submit wakes the replica's
// driver task, a decision wakes it again, and between the two every step is
// taken on a received message — there is no timer for a command to wait on.
// A lone command at an idle replica therefore commits in consensus time: six
// link delays at a follower (kick, announcement, estimate, proposition, ack,
// decide), four at the leader. The timers that remain (consensus.Options.Poll,
// ProbeAfter, TransferTimeout) only poll the detector and repair loss.
//
// Every task of a replica is a callback-shaped task (package dsys): the
// driver, the per-slot instance runners (each a cec.Proposal) and the shared
// responder are step tasks, resumable state machines that return what they
// wait for next; the state server is a receive loop. The simulator runs
// them all inline on its dispatch loop, so a simulated log starts no
// goroutine once its replicas are set up; the live runtime runs the same
// state machines through their blocking expansion, one goroutine each.
package core

import (
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/consensus"
	"repro/internal/consensus/cec"
	"repro/internal/dsys"
	"repro/internal/fd"
	"repro/internal/fd/ring"
	"repro/internal/rbcast"
)

// Message kinds (each suffixed with the instance namespace when one is
// configured).
const (
	// KindKick is the message kind of slot announcements.
	KindKick = "core.kick"
	// KindFetch asks a peer for its decided log range (state transfer).
	KindFetch = "core.fetch"
	// KindState answers a KindFetch with one chunk of decided entries.
	KindState = "core.state"
	// KindDone is the self-addressed wake-up of the replica's driver task; it
	// never crosses the network. Three senders, each right after changing
	// something the driver acts on: the decide-broadcast handler and an
	// instance runner (whichever of the two recorded the slot's decision),
	// and Submit (a command arrived while nothing of ours was in flight).
	KindDone = "core.done"
)

// Command is one entry ordered by the log. Origin and Seq identify it
// uniquely (Seq is a per-origin counter), so Commands are comparable and a
// command is applied exactly once. Seq is 64-bit so wall-clock-derived
// SeqBase values survive 32-bit platforms untruncated.
type Command struct {
	Origin  dsys.ProcessID
	Seq     int64
	Payload any
}

// Batch is the value a log slot decides: the commands of one consensus
// instance, applied in order. An empty batch is a no-op slot — proposed only
// on fast-forward paths, applied as nothing.
type Batch struct {
	Cmds []Command
}

// Kick is the payload of slot announcements: the announced slot and the
// batch the announcer proposes for it. Exported for transport serialization
// (package tcpnet).
type Kick struct {
	Slot  int
	Batch Batch
}

// Config configures a Replica. The zero value is usable. Nothing here sets a
// polling interval: the replica's driver blocks until a message gives it
// something to do (see KindDone).
type Config struct {
	// Detector supplies the ◇C modules; if nil a ring detector with the
	// default period is started.
	Detector fd.EventuallyConsistent
	// Consensus is the base for per-slot consensus options; Instance is
	// used as a namespace prefix.
	Consensus consensus.Options
	// Apply is called on one of the replica's tasks for every decided
	// command — never concurrently, always in slot order and, within a
	// slot, in batch order. Optional.
	Apply func(slot int, cmd Command)
	// MaxBatch caps how many pending commands one slot proposal carries
	// (default 64). 1 disables batching: one command per slot, the
	// pre-batching behaviour. A proposal also stops short of 1 MiB of
	// estimated payload, though it always carries one command.
	MaxBatch int
	// Pipeline is how many consensus instances this replica may keep open
	// at once (default 4): slot k+W-1 can start while slot k is still
	// undecided. Decisions are applied strictly in slot order regardless.
	// 1 disables pipelining: the next slot opens only after the previous
	// applied, the pre-pipelining behaviour.
	Pipeline int
	// SeqBase offsets the per-origin sequence counter: the first Submit
	// gets Seq SeqBase+1. A process that can crash and restart (so the
	// replica's counter restarts too) must pass a value unique to the
	// incarnation — e.g. a wall-clock timestamp — or commands of the new
	// incarnation would collide with its old ones, since (Origin, Seq)
	// identifies a command.
	SeqBase int64
	// Incarnation stamps this replica's reliable-broadcast life (see
	// rbcast.StartNamespaceInc). Like SeqBase, a process that can crash and
	// restart must pass a per-incarnation value — e.g. a wall-clock
	// timestamp — or the new life's decision broadcasts are deduplicated
	// against the old one's at every peer and silently dropped, leaving
	// followers to learn each decision only through probe timeouts. 0 uses
	// the process clock, which is fine wherever that clock survives
	// restarts (the simulator's virtual time).
	Incarnation int64
	// TransferChunk caps how many decided entries one State message
	// carries (default 256). A donor also clamps requested limits to
	// maxTransferChunk, so a hostile Fetch cannot make it build an
	// arbitrarily large reply.
	TransferChunk int
	// TransferTimeout bounds how long a state-transfer request waits for
	// one chunk before trying the next donor (default 250ms).
	TransferTimeout time.Duration
}

// Replica is one process's replicated-log engine.
type Replica struct {
	cfg  Config
	self dsys.ProcessID
	proc dsys.Proc // the handle StartReplica was given; Submit's wake-up goes out through it
	det  fd.EventuallyConsistent
	rb   *rbcast.Module

	mu            sync.Mutex
	pending       []Command // submitted, not yet applied own commands
	pendHead      int       // first live index of pending (amortized pop)
	submitWoke    bool      // a Submit's wake-up is sent and the driver has not drained it yet
	nextSeq       int64
	decided       map[int]decision // parked decisions: decided slots not yet applied, by slot
	log           []decision       // applied slots' decisions; log[s-1] is slot s's
	decidedHigh   int              // highest log slot seen decided
	seen          cmdSet           // identities of the applied commands
	appliedLen    int              // number of applied commands
	applyNext     int              // next slot to apply (first not-yet-applied)
	nextOpen      int              // next slot this replica will open an instance for
	inflightSlot  int              // slot the current own-batch proposal went to (0 = none)
	inflight      []Command        // the commands of that proposal
	running       map[int]bool     // slots whose instance runner has not returned yet
	kicks         map[int]Batch    // announced batches by slot, applyNext..; pruned on apply
	kickHigh      int              // highest announced slot seen
	transferStall int              // frontier at the last failed state transfer
	kickKind      string           // KindKick, namespaced by the instance
	fetchKind     string           // KindFetch, namespaced by the instance
	stateKind     string           // KindState, namespaced by the instance
	doneKind      string           // KindDone, namespaced by the instance
	instPrefix    string           // instance-name prefix of log slots
}

// deferLag is how many slots behind the decided frontier a replica may be —
// beyond its own pipeline window, which is legitimate in-flight work, not
// lag — while still accepting leadership. Below the threshold it is at most
// a frontier-race behind (mirroring the responder's grace); at or beyond it
// the replica defers coordination until its replay completes.
const deferLag = 3

// maxBatchBytes caps the estimated payload bytes of one slot proposal. The
// estimate (payloadSize) is exact for string and []byte payloads and a small
// constant otherwise; a batch always carries at least one command regardless
// of size.
const maxBatchBytes = 1 << 20

// StartReplica attaches a replica to p's process and starts its tasks.
func StartReplica(p dsys.Proc, cfg Config) *Replica {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 64
	}
	if cfg.Pipeline <= 0 {
		cfg.Pipeline = 4
	}
	if cfg.TransferChunk <= 0 || cfg.TransferChunk > maxTransferChunk {
		cfg.TransferChunk = 256
	}
	if cfg.TransferTimeout <= 0 {
		cfg.TransferTimeout = 250 * time.Millisecond
	}
	r := &Replica{
		cfg:        cfg,
		self:       p.ID(),
		proc:       p,
		det:        cfg.Detector,
		decided:    make(map[int]decision),
		seen:       make(cmdSet),
		running:    make(map[int]bool),
		kicks:      make(map[int]Batch),
		nextSeq:    cfg.SeqBase,
		applyNext:  1,
		nextOpen:   1,
		kickKind:   KindKick,
		fetchKind:  KindFetch,
		stateKind:  KindState,
		doneKind:   KindDone,
		instPrefix: cfg.Consensus.Instance + "/log/",
	}
	if cfg.Consensus.Instance != "" {
		suffix := "/" + cfg.Consensus.Instance
		r.kickKind += suffix
		r.fetchKind += suffix
		r.stateKind += suffix
		r.doneKind += suffix
	}
	if r.det == nil {
		r.det = ring.Start(p, ring.Options{})
	}
	// Caught-up leadership: if the detector supports self-deferral, gate
	// this replica's leadership on being (near) the decided frontier, so a
	// restarted replica is not re-trusted — parking consensus coordination
	// on a deaf process — before its replay completes. (Detectors without
	// the hook, e.g. ec.FromPerfect over a plain heartbeat, keep the old
	// behaviour; the shared responder still answers for the replaying
	// replica.)
	if ld, ok := r.det.(fd.LeadershipDeferrer); ok {
		ld.SetReadiness(r.caughtUp)
	}
	r.rb = rbcast.StartNamespaceInc(p, cfg.Consensus.Instance, cfg.Incarnation)
	r.rb.OnDeliver(func(dp dsys.Proc, _ dsys.ProcessID, payload any) {
		dec, ok := payload.(consensus.Decide)
		if !ok {
			return
		}
		s := r.slotOf(dec.Inst)
		if s == 0 {
			return
		}
		// Wake the driver so the decision is applied (and the window slides)
		// now. Self-sends are local on every runtime (zero link delay, no
		// transport).
		if r.recordDecision(s, dec.Round, dec.Value) {
			dp.Send(dp.ID(), r.doneKind, nil)
		}
	})
	dsys.SpawnStep(p, "core-log", newDriver(r).step)
	dsys.SpawnStep(p, "core-responder", r.responder())
	dsys.SpawnRecvLoop(p, "core-state", r.serveFetch, r.fetchKind)
	return r
}

// caughtUp reports whether this replica is close enough to the decided
// frontier to coordinate consensus; it is the readiness predicate handed to
// the detector's leadership-deferral hook. The replica's own pipeline window
// is in-flight work, not lag, so it does not count against readiness.
func (r *Replica) caughtUp() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.decidedHigh-r.applyNext < deferLag+r.cfg.Pipeline-1
}

// responder returns the step body of the replica's single shared answering
// service for consensus messages none of its instance runners is (or will
// soon be) listening for. It plays two roles:
//
//   - For slots already decided here it answers any late message with the
//     decision, centralising what cec's per-instance responder would do —
//     one everlasting task per slot would wake on every message arrival and
//     make throughput decay with the log length (Options.NoResponder). It
//     stands back while the slot's own runner is still deciding: that
//     runner is waiting for the self-addressed KindDecided of its
//     R-delivery, and taking it from under the runner would leave it parked
//     until its next poll. Whatever the runner leaves behind is swept up
//     here once it has finished.
//   - For slots beyond this replica's pipeline window it mirrors the
//     reactive tasks of the paper's Fig. 4 (null estimates to coordinators,
//     nacks to non-null propositions). Without that, a replica replaying its
//     log after a restart would leave the frontier coordinator's "wait for
//     every non-suspected process" rule hanging — the replica is alive and
//     unsuspected but deaf to instances beyond its replay position —
//     stalling the whole cluster for the catch-up's duration. Slots within
//     applyNext+Pipeline are excluded: those belong to instances this
//     replica is running now or will open next (a peer's window runs at
//     most one frontier-race ahead of ours), and answering them would steal
//     messages from our own instances.
func (r *Replica) responder() dsys.StepFunc {
	wait := dsys.Await(dsys.MatchFunc(func(m *dsys.Message) bool {
		if !strings.HasPrefix(m.Kind, "cec.") {
			return false
		}
		env, ok := m.Payload.(consensus.Msg)
		if !ok {
			return false
		}
		s := r.slotOf(env.Inst)
		if s == 0 {
			return false
		}
		r.mu.Lock()
		_, dec := r.decisionLocked(s)
		ahead := s > r.applyNext+r.cfg.Pipeline
		running := r.running[s]
		r.mu.Unlock()
		return dec && !running || ahead
	}))
	return func(p dsys.Proc, m *dsys.Message) dsys.Wait {
		if m == nil || m.From == p.ID() {
			return wait
		}
		env := m.Payload.(consensus.Msg)
		s := r.slotOf(env.Inst)
		r.mu.Lock()
		dec, isDec := r.decisionLocked(s)
		r.mu.Unlock()
		switch {
		case isDec:
			// Never answer a KindDecided (another responder) — it would loop.
			if m.Kind != cec.KindDecided {
				p.Send(m.From, cec.KindDecided, consensus.Msg{Inst: env.Inst, Round: dec.round, Est: dec.value})
			}
		case m.Kind == cec.KindCoord:
			// A coordinator announcement: answer with a null estimate so its
			// Phase 2 can complete without us.
			p.Send(m.From, cec.KindEst, consensus.Msg{Inst: env.Inst, Round: env.Round, Null: true})
		case m.Kind == cec.KindEst:
			// Someone believes we coordinate an instance we have not reached:
			// a null proposition releases its Phase 3.
			p.Send(m.From, cec.KindProp, consensus.Msg{Inst: env.Inst, Round: env.Round, Null: true})
		case m.Kind == cec.KindProp:
			// A non-null proposition: nack it (we did not adopt). The paper's
			// majority-of-acks rule decides fine alongside our nack.
			if !env.Null {
				p.Send(m.From, cec.KindNack, consensus.Msg{Inst: env.Inst, Round: env.Round})
			}
		}
		return wait
	}
}

// Submit enqueues a command payload for ordering and returns its identity.
// It may be called from any goroutine (live runtime) or from any task or
// kernel callback (simulator) and returns immediately; the command is applied
// everywhere once ordered. On a crashed or stopped process it is a no-op
// beyond the buffer append.
//
// Submit wakes the driver itself: when no own chunk is in flight and no
// earlier Submit's wake-up is still outstanding it self-sends one KindDone.
// Otherwise it is a plain append — the driver re-reads the buffer when the
// in-flight chunk applies, or when it drains the outstanding wake-up, and
// both happen after this append (all under mu), so no command is left behind.
func (r *Replica) Submit(payload any) Command {
	r.mu.Lock()
	r.nextSeq++
	cmd := Command{Origin: r.self, Seq: r.nextSeq, Payload: payload}
	r.pending = append(r.pending, cmd)
	wake := r.inflightSlot == 0 && !r.submitWoke
	if wake {
		r.submitWoke = true
	}
	r.mu.Unlock()
	if wake {
		r.proc.Send(r.self, r.doneKind, nil)
	}
	return cmd
}

// PendingCount returns the number of submitted-but-unapplied commands.
func (r *Replica) PendingCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.pending) - r.pendHead
}

func (r *Replica) instance(slot int) string {
	return r.instPrefix + strconv.Itoa(slot)
}

// slotOf inverts instance; it returns 0 for non-log instance names.
func (r *Replica) slotOf(inst string) int {
	if !strings.HasPrefix(inst, r.instPrefix) {
		return 0
	}
	s, err := strconv.Atoi(inst[len(r.instPrefix):])
	if err != nil {
		return 0
	}
	return s
}

// noteKick records a slot announcement: the batch (so an idle replica can
// propose the kicker's commands at that slot) and the high-water mark (a
// frontier hint for behind-detection and state transfer).
func (r *Replica) noteKick(k Kick) {
	r.mu.Lock()
	if k.Slot > r.kickHigh {
		r.kickHigh = k.Slot
	}
	if k.Slot >= r.applyNext {
		if _, dup := r.kicks[k.Slot]; !dup {
			r.kicks[k.Slot] = k.Batch
		}
	}
	r.mu.Unlock()
}

// payloadSize estimates a command payload's wire weight for maxBatchBytes:
// exact for the common string/[]byte cases, a small constant otherwise.
func payloadSize(v any) int {
	switch s := v.(type) {
	case string:
		return len(s) + 16
	case []byte:
		return len(s) + 16
	default:
		return 32
	}
}

// takeChunkLocked builds this replica's next own-batch proposal from the
// head of the pending buffer (bounded by MaxBatch and maxBatchBytes) and marks
// it in flight at slot s. Chunks are always contiguous head prefixes and at
// most one own chunk is in flight at a time; together with strict slot-order
// apply that is what preserves per-origin FIFO (see drainApplies).
func (r *Replica) takeChunkLocked(s int) Batch {
	n := len(r.pending) - r.pendHead
	if n > r.cfg.MaxBatch {
		n = r.cfg.MaxBatch
	}
	cmds := make([]Command, 0, n)
	bytes := 0
	for i := r.pendHead; i < len(r.pending) && len(cmds) < r.cfg.MaxBatch; i++ {
		c := r.pending[i]
		bytes += payloadSize(c.Payload)
		if len(cmds) > 0 && bytes > maxBatchBytes {
			break
		}
		cmds = append(cmds, c)
	}
	r.inflightSlot, r.inflight = s, cmds
	return Batch{Cmds: cmds}
}

// pendingKeep is the largest pending capacity a drained buffer keeps. It
// sits above the steady backlog of a busy replica (a few hundred commands
// between drains under a steady stream), so steady load reuses one array;
// a burst of submits grows the array far past that, and the replica would
// otherwise keep the burst's array for the rest of its life.
const pendingKeep = 1024

// dropPendingLocked removes one applied own command from the pending buffer.
// Applied own commands always form a prefix of the submit order (chunks are
// head prefixes and batches apply in order), so this is an O(1) head pop in
// practice; the scan is a safety net.
func (r *Replica) dropPendingLocked(seq int64) {
	for i := r.pendHead; i < len(r.pending); i++ {
		if r.pending[i].Seq != seq {
			continue
		}
		if i == r.pendHead {
			r.pending[i] = Command{}
			r.pendHead++
		} else {
			copy(r.pending[i:], r.pending[i+1:])
			r.pending[len(r.pending)-1] = Command{}
			r.pending = r.pending[:len(r.pending)-1]
		}
		break
	}
	if r.pendHead == len(r.pending) {
		// Drained: reuse the array from the start, unless a burst grew it
		// past pendingKeep.
		r.pending, r.pendHead = r.pending[:0], 0
		if cap(r.pending) > pendingKeep {
			r.pending = nil
		}
		return
	}
	// Amortized compaction keeps the buffer from retaining applied prefixes.
	if r.pendHead > 256 && r.pendHead*2 >= len(r.pending) {
		n := copy(r.pending, r.pending[r.pendHead:])
		clear(r.pending[n:])
		r.pending = r.pending[:n]
		r.pendHead = 0
	}
}

// openNext opens a consensus instance for the next slot if the pipeline
// window has room and there is a reason to run it: our own pending commands
// (at most one own batch in flight), a kick from another replica, or a
// decided frontier beyond the slot (the decision exists somewhere — go get
// it). It reports whether it advanced, so the driver loops until the window
// is full or there is nothing to do.
func (r *Replica) openNext(p dsys.Proc) bool {
	r.mu.Lock()
	pipe := r.cfg.Pipeline
	s := r.nextOpen
	if s >= r.applyNext+pipe {
		r.mu.Unlock()
		return false // window full: wait for applyNext to advance
	}
	if _, ok := r.decisionLocked(s); ok {
		// Already decided (out-of-order arrival or installed state): no
		// instance to run — drainApplies will consume it once contiguous.
		r.nextOpen = s + 1
		r.mu.Unlock()
		return true
	}
	var prop Batch
	own := false
	kicked, hasKick := r.kicks[s]
	switch {
	case r.pendHead < len(r.pending) && r.inflightSlot == 0:
		prop = r.takeChunkLocked(s)
		own = true
	case hasKick:
		prop = kicked
	case r.kickHigh >= s:
		// A later slot was announced but this one's kick was lost or pruned:
		// join with the latest announced batch (deduplicated on apply).
		prop = r.kicks[r.kickHigh]
	case r.decidedHigh > s:
		prop = Batch{} // fast-forward: probe for the existing decision
	default:
		r.mu.Unlock()
		return false // nothing to do at this slot yet
	}
	// Aggressive probing only when the slot is provably decided somewhere:
	// signals at or beyond one pipeline window (a kicker at s+Pipeline must
	// have applied s; likewise whoever opened the decided slot s+Pipeline).
	// Anything closer is ordinary in-flight pipelining, not lag.
	behind := r.decidedHigh >= s+pipe || r.kickHigh >= s+pipe
	r.nextOpen = s + 1
	r.running[s] = true
	r.mu.Unlock()

	if own {
		// Announce the slot so idle replicas join it proposing our batch.
		for _, q := range p.All() {
			if q != r.self {
				p.Send(q, r.kickKind, Kick{Slot: s, Batch: prop})
			}
		}
	}
	dsys.SpawnStep(p, "core-inst", r.runInstance(s, prop, behind))
	return true
}

// runInstance returns the step body of one slot's consensus instance, run as
// its own short-lived task so the driver can keep up to Pipeline of them
// open at once. Once the instance decides, the task records the decision and
// wakes the driver; the driver applies.
func (r *Replica) runInstance(slot int, prop Batch, behind bool) dsys.StepFunc {
	opt := r.cfg.Consensus
	opt.Instance = r.instance(slot)
	opt.PreDecided = func() (any, int, bool) { return r.lookupDecided(slot) }
	if behind {
		// This slot is already decided somewhere: probe for the decision
		// after one short idle poll rather than sitting out the full idle
		// threshold. This is what makes a restarted replica's log replay
		// take a millisecond or two per slot, not hundreds of them — and
		// what lets it outrun a frontier that keeps deciding new slots
		// while it replays.
		opt.ProbeAfter = 1
		if opt.Poll <= 0 || opt.Poll > 500*time.Microsecond {
			opt.Poll = 500 * time.Microsecond
		}
	}
	// The replica's shared responder answers stragglers for every decided
	// slot; per-instance responders would accumulate one task per slot
	// forever.
	opt.NoResponder = true
	pr := cec.NewProposal(r.det, r.rb, prop, opt)
	return func(p dsys.Proc, m *dsys.Message) dsys.Wait {
		if w := pr.Step(p, m); !w.Done() {
			return w
		}
		// The instance may have learned the decision from a probe answer
		// rather than the decide broadcast: record it so the responder can
		// serve this slot, and wake the driver to apply it. When the
		// broadcast got here first its handler has done both already.
		res, _ := pr.Result()
		fresh := r.recordDecision(slot, res.Round, res.Value)
		r.mu.Lock()
		delete(r.running, slot)
		r.mu.Unlock()
		if fresh {
			p.Send(p.ID(), r.doneKind, nil)
		}
		return dsys.Finished
	}
}

// driver is the replica's log driver, a step task: it drains
// announcements, keeps the pipeline window of instance runners filled,
// applies parked decisions in slot order, and engages batch state transfer
// when genuinely behind. Each step handles the message that ended the wait
// named by at.
type driver struct {
	r  *Replica
	at driverWait
	// The waits: a poll of each message kind the driver drains, a state
	// chunk during a transfer, and any of the three kinds when idle.
	kicks, states, dones, chunk, wake dsys.Wait
	xfer                              transfer
}

// driverWait names the wait a driver step resumes from.
type driverWait uint8

const (
	waitStart  driverWait = iota
	pollKicks             // drain queued kicks
	pollStates            // drain queued state chunks
	pollDones             // drain queued wake-ups
	waitChunk             // a state transfer awaits its chunk
	waitWake              // idle until a kick, a state chunk or a wake-up
)

func newDriver(r *Replica) *driver {
	kk, sk, dk := r.kickKind, r.stateKind, r.doneKind
	return &driver{
		r:      r,
		kicks:  dsys.AwaitTimeout(dsys.MatchKind(kk), 0),
		states: dsys.AwaitTimeout(dsys.MatchKind(sk), 0),
		dones:  dsys.AwaitTimeout(dsys.MatchKind(dk), 0),
		chunk:  dsys.AwaitTimeout(dsys.MatchKind(sk), r.cfg.TransferTimeout),
		wake: dsys.Await(dsys.MatchFunc(func(m *dsys.Message) bool {
			return m.Kind == kk || m.Kind == sk || m.Kind == dk
		})),
	}
}

func (d *driver) step(p dsys.Proc, m *dsys.Message) dsys.Wait {
	r := d.r
	switch d.at {
	case pollKicks:
		// Drain queued kicks, state chunks and wakeups first. Buffered
		// messages no receiver takes pin the mailbox head — every later
		// receive scans past them — so a busy replica would slow down in
		// proportion to how long it has been busy. Stray State chunks (late
		// answers from an abandoned transfer donor) carry decisions, which
		// are facts: installing them is always right.
		if m != nil {
			r.noteKick(m.Payload.(Kick))
			return d.kicks
		}
		d.at = pollStates
		return d.states
	case pollStates:
		if m != nil {
			r.installState(m.Payload.(State))
			return d.states
		}
		d.at = pollDones
		return d.dones
	case pollDones:
		if m != nil {
			return d.dones
		}
		// Every wake-up sent so far is drained, and the buffer is read below:
		// from here on a Submit must send a new one.
		r.mu.Lock()
		r.submitWoke = false
		r.mu.Unlock()
		if r.beginTransfer(p, &d.xfer) {
			return d.fetch(p)
		}
		return d.settle(p)
	case waitChunk:
		if r.fetched(&d.xfer, m) {
			return d.fetch(p)
		}
		r.endTransfer(&d.xfer)
		return d.settle(p)
	case waitWake:
		switch m.Kind {
		case r.kickKind:
			r.noteKick(m.Payload.(Kick))
		case r.stateKind:
			r.installState(m.Payload.(State))
		}
	}
	d.at = pollKicks
	return d.kicks
}

// fetch asks the transfer's current donor for the next chunk and waits for
// it, or, when the transfer is over, ends it and settles.
func (d *driver) fetch(p dsys.Proc) dsys.Wait {
	if d.r.fetchNext(p, &d.xfer) {
		d.at = waitChunk
		return d.chunk
	}
	d.r.endTransfer(&d.xfer)
	return d.settle(p)
}

// settle applies what is decided, opens what the window allows, and waits
// for a reason to do more. Everything re-checked here changes only on one
// of the wake kinds: a slot announcement, a state chunk, or a KindDone from
// whoever recorded a decision or submitted a command. There is no timer — a
// stall would be a missing wake-up.
func (d *driver) settle(p dsys.Proc) dsys.Wait {
	d.r.drainApplies()
	for d.r.openNext(p) {
	}
	d.at = waitWake
	return d.wake
}

// applyNextNow returns the current apply frontier.
func (r *Replica) applyNextNow() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.applyNext
}
