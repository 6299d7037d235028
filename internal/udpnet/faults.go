package udpnet

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/dsys"
	"repro/internal/netfault"
)

// Faults injects datagram faults into a Transport. The shared knobs (Seed,
// DropP, DupP) come from package netfault and mean exactly what they mean on
// tcpnet; the remaining knobs are datagram-specific: UDP has no connections
// to reset, but it does reorder, delay asymmetrically and jitter — faults a
// stream transport hides from the detectors entirely.
//
// The probability and duration knobs are read at Transport construction: set
// them before passing the Faults to NewTransport and leave them fixed
// for the run — construction rejects out-of-range values. Partitions
// (Partition/Heal/HealAll, promoted from netfault.Engine) and per-link
// delays (SetDelay) are dynamic: callable at any time while the transport
// runs. One Faults value must not be shared by two transports.
//
// Every injected fault is traced on the transport's collector: "udp.drop"
// (random datagram drop), "udp.dup" (datagram duplicated), "udp.cut"
// (dropped by a partition), "udp.reorder" (datagram held back past later
// sends).
type Faults struct {
	// Knobs carries the shared fault configuration — Seed, DropP, DupP —
	// with the same semantics as tcpnet.Faults (one definition, one
	// validation path; see package netfault).
	netfault.Knobs
	// ReorderP holds each datagram back with this probability: the victim
	// is deferred by a uniform draw from (0, ReorderWindow], so datagrams
	// sent to the same destination in the meantime overtake it — genuine
	// reordering, which TCP never shows an application.
	ReorderP float64
	// ReorderWindow bounds how long a held-back datagram is deferred
	// (default 20ms when ReorderP > 0).
	ReorderWindow time.Duration
	// Jitter adds an independent uniform delay from [0, Jitter) to every
	// datagram, modelling queueing-delay variance.
	Jitter time.Duration

	// Engine provides the seeded randomness and the dynamic partition set;
	// its Partition, Heal and HealAll methods promote onto Faults.
	netfault.Engine

	// delay holds the dynamic per-directed-link fixed delays (SetDelay).
	dmu   sync.Mutex
	delay map[[2]dsys.ProcessID]time.Duration
}

// init validates the knobs, fills defaults and seeds the engine. Called by
// NewTransport; idempotent.
func (f *Faults) init() error {
	if err := f.Knobs.Validate(); err != nil {
		return fmt.Errorf("udpnet: %w", err)
	}
	if err := netfault.ValidateP("ReorderP", f.ReorderP); err != nil {
		return fmt.Errorf("udpnet: %w", err)
	}
	if f.ReorderWindow < 0 || f.Jitter < 0 {
		return fmt.Errorf("udpnet: ReorderWindow/Jitter must be >= 0 (got %v/%v)", f.ReorderWindow, f.Jitter)
	}
	if f.ReorderP > 0 && f.ReorderWindow == 0 {
		f.ReorderWindow = 20 * time.Millisecond
	}
	f.Engine.Init(f.Seed)
	return nil
}

// SetDelay fixes an extra delivery delay on the directed link from -> to —
// one direction only, so asymmetric link quality (fast request path, slow
// reply path) is expressible. d <= 0 removes the delay. Dynamic: callable
// while the transport runs.
func (f *Faults) SetDelay(from, to dsys.ProcessID, d time.Duration) {
	f.dmu.Lock()
	if f.delay == nil {
		f.delay = make(map[[2]dsys.ProcessID]time.Duration)
	}
	if d <= 0 {
		delete(f.delay, [2]dsys.ProcessID{from, to})
	} else {
		f.delay[[2]dsys.ProcessID{from, to}] = d
	}
	f.dmu.Unlock()
}

// linkDelay returns the fixed delay configured for from -> to.
func (f *Faults) linkDelay(from, to dsys.ProcessID) time.Duration {
	f.dmu.Lock()
	defer f.dmu.Unlock()
	return f.delay[[2]dsys.ProcessID{from, to}]
}
