package fd

import (
	"time"

	"repro/internal/dsys"
)

// The timing policy every detector in this repository times processes out
// with, as functions of the detector's period η. It is Task 4 of the paper's
// Fig. 2: suspect q after Δp(q) of silence, and lengthen Δp(q) whenever a
// suspicion of q proves false. Theorem 1 needs the lengthening because the
// bound Δ is unknown, so no fixed Δp(q) is safe.

// InitialTimeout is Δp(q) before any false suspicion of q: 3η.
func InitialTimeout(period time.Duration) time.Duration { return 3 * period }

// TimeoutIncrement is what each retracted suspicion of q adds to Δp(q): 2η.
func TimeoutIncrement(period time.Duration) time.Duration { return 2 * period }

// CheckInterval is how often a detector evaluates expiries: η/2, at least
// 1ns.
func CheckInterval(period time.Duration) time.Duration {
	return max(period/2, time.Nanosecond)
}

// WatchTTL is how long a WATCH request keeps the watcher on the heartbeat
// list of the ring-walking detectors (packages ring and neighbor): 6η.
func WatchTTL(period time.Duration) time.Duration { return 6 * period }

// WatchRenew is how often those detectors re-send WATCH to a predecessor
// that is not their immediate ring neighbour: half of WatchTTL.
func WatchRenew(period time.Duration) time.Duration { return WatchTTL(period) / 2 }

// Timeouts is Task 4's per-process back-off: Δp(q) for every monitored q. It
// is sparse, because after GST false suspicions are few: a process has an
// entry only once a suspicion of it was retracted, and every other process
// times out after InitialTimeout. The zero value is not usable; build one
// with NewTimeouts. Timeouts is not safe for concurrent use.
type Timeouts struct {
	period time.Duration
	// backoff holds the total increment of each process that was falsely
	// suspected; nil until the first retraction.
	backoff map[dsys.ProcessID]time.Duration
}

// NewTimeouts returns the timeouts of a detector with period η, every one at
// InitialTimeout(η).
func NewTimeouts(period time.Duration) Timeouts { return Timeouts{period: period} }

// Of returns Δp(q).
func (t *Timeouts) Of(q dsys.ProcessID) time.Duration {
	return InitialTimeout(t.period) + t.backoff[q]
}

// Increase lengthens Δp(q) by TimeoutIncrement. Detectors call it when a
// suspicion of q proves false (Task 4); omega.Stable, whose accusations are
// never retracted, calls it on each accusation.
func (t *Timeouts) Increase(q dsys.ProcessID) {
	if t.backoff == nil {
		t.backoff = make(map[dsys.ProcessID]time.Duration)
	}
	t.backoff[q] += TimeoutIncrement(t.period)
}
