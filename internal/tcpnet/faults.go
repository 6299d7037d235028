package tcpnet

import (
	"fmt"

	"repro/internal/netfault"
)

// Faults injects transport faults into a Transport, mirroring over real
// sockets what package network's models (FairLossy, Partitioned,
// Duplicating) give the simulator, so the QoS and soak experiments can run
// against TCP.
//
// The probability knobs (netfault.Knobs plus ResetP) are read at Transport
// construction: set them before passing the Faults to New or NewTransport
// and leave them fixed for the run — construction rejects out-of-range
// probabilities. Partitions are dynamic: Partition/Heal/HealAll may be
// called at any time while the transport runs. One Faults value must not be
// shared by two transports.
//
// Every injected fault is traced on the transport's collector: "tcp.drop"
// (random frame drop), "tcp.dup" (frame duplicated), "tcp.cut" (frame
// dropped by a partition), "tcp.reset" (forced connection reset).
type Faults struct {
	// Knobs carries the shared fault configuration — Seed, DropP, DupP —
	// with the same semantics as udpnet.Faults (one definition, one
	// validation path; see package netfault).
	netfault.Knobs
	// ResetP forcibly closes the outbound connection after a successfully
	// written frame with this probability. The writer reconnects with
	// backoff; later frames flow again (frames lost in the TCP teardown
	// window count against DropP-style fair loss, not permanent loss).
	// Stream-specific: udpnet has no connections to reset.
	ResetP float64

	// Engine provides the seeded randomness and the dynamic partition set;
	// its Partition, Heal and HealAll methods promote onto Faults.
	netfault.Engine
}

// init validates the knobs and seeds the engine. Called by NewTransport;
// idempotent.
func (f *Faults) init() error {
	if err := f.Knobs.Validate(); err != nil {
		return fmt.Errorf("tcpnet: %w", err)
	}
	if err := netfault.ValidateP("ResetP", f.ResetP); err != nil {
		return fmt.Errorf("tcpnet: %w", err)
	}
	f.Engine.Init(f.Seed)
	return nil
}
