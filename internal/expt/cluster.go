package expt

import (
	"fmt"
	"os"
	"time"

	"repro/internal/cluster"
)

// E16ClusterKillRestart is a supplementary engineering experiment on the
// multi-process harness: n real ecnode OS processes (ring ◇C detector +
// reliable broadcast + the ◇C-consensus replicated log), driven by a real
// ecload client process, with SIGKILLs and restarts injected mid-load. It
// measures, per fault phase:
//
//	detect   SIGKILL → every survivor's detector suspects the victim
//	recover  restart → no survivor suspects it and it agrees on the leader
//	catchup  restart → the victim's applied log has caught the survivors'
//	dip/s    the worst client-visible committed-ops second (interior buckets)
//
// The full run uses n=5, quick mode (also the CI smoke configuration) n=3;
// both kill a follower and then the leader. Unlike E13–E15 this crosses real
// process boundaries: the crash is a kernel-delivered SIGKILL tearing down
// sockets mid-write, not a method call on a struct, and the restarted
// process rebuilds its state from its peers through the same wire protocol
// the clients stress.
//
// The leader-kill phase doubles as the regression gate for the restart
// catch-up path: the restarted replica must rejoin via batch state transfer
// (core.fetch/core.state) and defer leadership until caught up, so the
// commit frontier never parks on it — asserted as "no interior second with
// zero committed ops", "catch-up within catchupBound", and "leader-kill dip
// within ~2x the follower-kill dip".
func E16ClusterKillRestart(quick bool) (*Table, error) {
	t := &Table{
		ID:      "E16",
		Title:   "Multi-process cluster under SIGKILL and restart: detection, recovery, client-visible availability (supplementary; wall-clock)",
		Claim:   "the paper's crash model enacted with real OS processes: the ring ◇C detector suspects a SIGKILLed node within a few periods, clears it after restart, and the replicated log serves clients through both transitions with a bounded throughput dip",
		Columns: []string{"phase", "victim", "detect", "recover", "catchup", "ops/s", "dip/s", "p50", "p99"},
	}
	n, loadDur, killAt := 5, 12*time.Second, 3*time.Second
	if quick {
		n, loadDur, killAt = 3, 6*time.Second, 2*time.Second
	}
	phases := []struct {
		name   string
		victim int // 1-based node id; 0 = no fault
	}{
		{"steady", 0},
		{"follower-kill", n},
		{"leader-kill", 1},
	}
	// catchupBound is the regression threshold on restart-to-caught-up: with
	// batch state transfer it is a few round trips past the ~100ms restart
	// and detector reconvergence; slot-by-slot replay of a few hundred slots
	// blew far past it (2-4s in the pre-transfer baselines).
	const catchupBound = 2500 * time.Millisecond

	dir, err := os.MkdirTemp("", "e16-")
	if err != nil {
		return t, err
	}
	defer os.RemoveAll(dir)
	bins, err := cluster.Build(dir)
	if err != nil {
		return t, err
	}
	c, err := cluster.Launch(bins, dir, cluster.GenOptions{N: n})
	if err != nil {
		return t, err
	}
	defer c.Stop()

	dips := map[string]int{}
	for _, ph := range phases {
		ld, lerr := cluster.StartLoad(bins.Ecload, c.Addrs, loadDur, n, 100, dir)
		if lerr != nil {
			return t, lerr
		}
		detect, recov, catchup := time.Duration(-1), time.Duration(-1), time.Duration(-1)
		if ph.victim != 0 {
			time.Sleep(killAt)
			killed := time.Now()
			if kerr := c.Node(ph.victim).Kill(); kerr != nil {
				return t, kerr
			}
			if c.AwaitSuspected(ph.victim) == nil {
				detect = time.Since(killed)
			}
			time.Sleep(1500 * time.Millisecond)
			restarted := time.Now()
			if rerr := c.Node(ph.victim).Restart(); rerr != nil {
				return t, rerr
			}
			if c.AwaitRejoined(ph.victim) == nil {
				recov = time.Since(restarted)
			}
			if c.AwaitCaughtUp(ph.victim) == nil {
				catchup = time.Since(restarted)
			}
		}
		rep, lerr := ld.Wait()
		if lerr != nil {
			return t, lerr
		}
		if ph.victim != 0 {
			t.Notes = append(t.Notes, fmt.Sprintf("%s committed/s timeline: %v", ph.name, rep.PerSecond))
		}
		victim, det, rec, cat := "-", "-", "-", "-"
		if ph.victim != 0 {
			victim = fmt.Sprintf("p%d", ph.victim)
			det, rec, cat = msdOrTimeout(detect), msdOrTimeout(recov), msdOrTimeout(catchup)
		}
		t.AddRow(ph.name, victim,
			det, rec, cat,
			fmt.Sprintf("%.1f", rep.OpsPerSec),
			fmt.Sprint(rep.MinInteriorSecond()),
			fmt.Sprintf("%.1fms", rep.P50MS),
			fmt.Sprintf("%.1fms", rep.P99MS))

		if err == nil {
			err = checkf(rep.Committed > 0, "E16", "%s: no operation ever committed", ph.name)
		}
		if ph.victim == 0 {
			if err == nil {
				err = checkf(rep.MinInteriorSecond() > 0, "E16",
					"steady phase: committed throughput hit zero without any fault")
			}
		} else {
			if err == nil {
				err = checkf(detect >= 0, "E16", "%s: survivors never suspected the SIGKILLed p%d", ph.name, ph.victim)
			}
			if err == nil {
				err = checkf(recov >= 0, "E16", "%s: cluster never reconverged after restarting p%d", ph.name, ph.victim)
			}
			if err == nil {
				err = checkf(catchup >= 0, "E16", "%s: restarted p%d never caught the survivors' log", ph.name, ph.victim)
			}
			if err == nil {
				err = checkf(catchup < catchupBound, "E16",
					"%s: catch-up took %v, want < %v (batch state transfer, not per-slot replay)", ph.name, catchup, catchupBound)
			}
			if err == nil {
				err = checkf(rep.MinInteriorSecond() > 0, "E16",
					"%s: a whole second passed with zero committed ops — the commit frontier stalled", ph.name)
			}
			dips[ph.name] = rep.MinInteriorSecond()
		}
		// Let the cluster settle before the next phase.
		if _, werr := c.AwaitAgreedLeader(); werr != nil && err == nil {
			err = checkf(false, "E16", "%s: %v", ph.name, werr)
		}
	}

	// Replicated-log safety across all faults: every replica's applied log
	// is a prefix of the longest.
	if aerr := c.CheckLogs(); err == nil {
		err = checkf(aerr == nil, "E16", "%v", aerr)
	}
	// A killed leader must cost clients about what a killed follower does:
	// its throughput floor may be at most ~2x worse (the floors are small
	// counts on a noisy wall clock, so the check is in floor space — before
	// batch transfer + leadership deferral the leader-kill floor was 0).
	if fDip, lDip := dips["follower-kill"], dips["leader-kill"]; err == nil && fDip > 0 && lDip >= 0 {
		err = checkf(2*lDip >= fDip, "E16",
			"leader-kill dip floor %d ops/s vs follower-kill %d — leader restart still costs clients disproportionately", lDip, fDip)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("n=%d real ecnode OS processes on loopback, ring detector period 10ms, ecload at rate cap 100 ops/s with one worker per node", n),
		"detect = SIGKILL to all survivors suspecting; recover = restart to suspicion cleared + leader agreed; catchup = restart to the victim's applied log reaching the survivors'",
		"dip/s is the smallest interior per-second committed count of the phase's load run (first/last partial seconds ignored)",
		"wall-clock over real processes and sockets; numbers are machine-dependent, assertions are existence/shape bounds",
		"a restarted replica rejoins via batch state transfer (core.fetch/core.state chunks from a live donor) and defers leadership until caught up (self-mark in its ring beats), so the frontier never parks on a replaying node — before this path the leader-kill phase showed a multi-second zero-ops stall (~3.7s for ~450 slots of 1ms/slot probe replay)",
	)
	return t, err
}

// msdOrTimeout renders a latency, or "timeout" for the -1 sentinel.
func msdOrTimeout(d time.Duration) string {
	if d < 0 {
		return "timeout"
	}
	return msd(d)
}
