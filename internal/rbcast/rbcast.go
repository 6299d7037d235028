// Package rbcast implements Reliable Broadcast, the communication primitive
// the paper's consensus algorithm uses to disseminate the decision (Section
// 5.2, third task of Fig. 4). It is the classical relay implementation cited
// from Chandra–Toueg: on R-broadcast the message is sent to every process;
// on first receipt every process but the origin relays it to every other
// process and only then R-delivers it. Over reliable links this satisfies:
//
//	Validity:  if a correct process R-broadcasts m, it R-delivers m.
//	Agreement: if any correct process R-delivers m, every correct process
//	           eventually R-delivers m (the relay step makes delivery
//	           contagious even if the origin crashed mid-broadcast).
//	Uniform integrity: every process R-delivers m at most once.
//
// Integrity is kept by remembering, per (origin, incarnation), which sequence
// numbers were delivered. An origin numbers its broadcasts 1, 2, 3, … and a
// receiver sees them nearly in order, so the set is stored as runs of
// consecutive numbers (package runset): one run per incarnation once every
// broadcast has arrived, plus a run per gap while reordering or loss leaves
// one open. The set is exact — a run list is not a window or a low-water
// mark — so integrity does not depend on how far out of order a copy arrives.
//
// The origin itself does not relay: it has just sent m to everyone, so its
// relay would hand every peer a second copy over the same link. Agreement
// never rested on it — if the origin is correct its first copies arrive, and
// if it crashes mid-broadcast its relay dies with it; what carries m to the
// processes the origin missed is the relay of whoever did receive it. One
// broadcast therefore costs (n−1) + (n−1)(n−2) = (n−1)² transport messages.
package rbcast

import (
	"slices"
	"sync"

	"repro/internal/dsys"
	"repro/internal/runset"
)

// Kind is the message kind of reliable-broadcast transport messages (the
// default, un-namespaced module; see StartNamespace).
const Kind = "rb.msg"

// Wire is the transport envelope of reliable-broadcast messages. Origin,
// Inc and Seq identify the broadcast. It is exported so transports that need
// to serialize payloads (package tcpnet) can register it.
type Wire struct {
	Origin dsys.ProcessID
	// Inc is the origin module's incarnation stamp. Sequence numbers start
	// at 1 in every module; without the stamp, a process that crashes and
	// restarts (new module, same process identity) re-issues sequence
	// numbers its peers have already marked delivered, and every broadcast
	// of the new life is silently dropped as a duplicate of the old one.
	Inc     int64
	Seq     int
	Payload any
}

// source is one life of one origin: the scope its sequence numbers count in.
type source struct {
	origin dsys.ProcessID
	inc    int64
}

// Handler receives an R-delivered payload. It runs on the module's relay
// task; p is that task's handle, usable to send notifications.
type Handler func(p dsys.Proc, origin dsys.ProcessID, payload any)

// Module is the reliable-broadcast module of one process. One module per
// process serves any number of broadcast users (e.g. successive consensus
// instances).
type Module struct {
	self dsys.ProcessID
	all  []dsys.ProcessID
	kind string
	inc  int64

	mu        sync.Mutex
	seq       int
	delivered map[source]*runset.Set // sequence numbers R-delivered, per source
	// handlers is in registration order and copy-on-write: OnDeliver and
	// cancel install a new slice, so a delivery reads the slice header under
	// mu and calls the handlers without it, allocating nothing.
	handlers []registered
	nextH    int
}

// registered is one OnDeliver registration; id is what cancel removes.
type registered struct {
	id int
	fn Handler
}

// Start attaches a reliable-broadcast module to p's process, using the
// default message kind. At most one module per process may use a given
// namespace: modules sharing a kind would compete for the same messages.
func Start(p dsys.Proc) *Module { return StartNamespace(p, "") }

// StartNamespace attaches a module whose transport messages carry a
// namespaced kind, so several independent broadcast domains (e.g. two
// replicated logs) can coexist on the same processes. All processes of a
// domain must use the same namespace. The module's incarnation is stamped
// from p.Now() — sufficient where restarts advance the process clock (the
// simulator's virtual time); embedders whose clock restarts with the
// process (an OS-process node) must use StartNamespaceInc with a stamp that
// survives the reset, e.g. wall-clock nanoseconds.
func StartNamespace(p dsys.Proc, ns string) *Module {
	return StartNamespaceInc(p, ns, int64(p.Now()))
}

// StartNamespaceInc is StartNamespace with an explicit incarnation stamp.
// The stamp distinguishes this module's broadcasts from those of earlier
// lives of the same process, whose sequence numbers peers may already have
// marked delivered; it must differ from every stamp the process used
// before. An inc of 0 falls back to p.Now().
func StartNamespaceInc(p dsys.Proc, ns string, inc int64) *Module {
	kind := Kind
	if ns != "" {
		kind += "/" + ns
	}
	if inc == 0 {
		inc = int64(p.Now())
	}
	m := &Module{
		self:      p.ID(),
		all:       p.All(),
		kind:      kind,
		inc:       inc,
		delivered: make(map[source]*runset.Set),
	}
	dsys.SpawnRecvLoop(p, "rb-relay", m.receive, m.kind)
	return m
}

// OnDeliver registers a delivery handler and returns a function that
// unregisters it. Handlers registered after a payload was delivered do not
// see past deliveries.
func (m *Module) OnDeliver(fn Handler) (cancel func()) {
	m.mu.Lock()
	defer m.mu.Unlock()
	id := m.nextH
	m.nextH++
	m.handlers = append(slices.Clip(m.handlers), registered{id, fn})
	return func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		if i := slices.IndexFunc(m.handlers, func(h registered) bool { return h.id == id }); i >= 0 {
			m.handlers = slices.Delete(slices.Clone(m.handlers), i, i+1)
		}
	}
}

// Broadcast R-broadcasts payload from this process. p must be a task handle
// of the same process. Delivery to the local process happens through the
// regular receive path, like everyone else's: the self-addressed copy is
// local on every runtime, so a correct origin always R-delivers its own
// broadcast (Validity) and a caller may wait for that delivery. These n
// sends are all the origin contributes; it does not relay (package comment).
func (m *Module) Broadcast(p dsys.Proc, payload any) {
	if p.ID() != m.self {
		panic("rbcast: Broadcast called with a foreign task handle")
	}
	m.mu.Lock()
	m.seq++
	w := Wire{Origin: m.self, Inc: m.inc, Seq: m.seq, Payload: payload}
	m.mu.Unlock()
	for _, q := range m.all {
		p.Send(q, m.kind, w)
	}
}

// DeliveredRuns returns the size of the module's only per-broadcast state:
// how many runs of sequence numbers the delivered set is stored as, and how
// many (origin, incarnation) sources they belong to. The two are equal
// whenever every source's broadcasts up to its latest have all arrived.
func (m *Module) DeliveredRuns() (runs, sources int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, s := range m.delivered {
		runs += s.Runs()
	}
	return runs, len(m.delivered)
}

// receive handles one transport message: on first receipt it relays, then
// R-delivers to the handlers in registration order.
func (m *Module) receive(p dsys.Proc, msg *dsys.Message) {
	w := msg.Payload.(Wire)
	src := source{w.Origin, w.Inc}
	m.mu.Lock()
	seen := m.delivered[src]
	if seen == nil {
		seen = new(runset.Set)
		m.delivered[src] = seen
	}
	if !seen.Add(int64(w.Seq)) {
		m.mu.Unlock()
		return
	}
	hs := m.handlers
	m.mu.Unlock()
	// Relay before delivering: if this process crashes right after acting on
	// the message, everyone else still receives it. Our own broadcast went
	// to everyone already (an earlier life's did not come from this module).
	if w.Origin != m.self || w.Inc != m.inc {
		for _, q := range m.all {
			if q != m.self && q != msg.From {
				p.Send(q, m.kind, msg.Payload) // the envelope as received, not boxed again
			}
		}
	}
	for _, h := range hs {
		h.fn(p, w.Origin, w.Payload)
	}
}
