// Command fdsim runs one failure-detector scenario on the deterministic
// simulator and reports which class properties the recorded trace satisfies,
// plus message-cost statistics.
//
// Usage:
//
//	fdsim -detector ring -n 6 -crash 2@300ms,5@600ms -gst 200ms -delta 10ms -for 4s
//
// Detectors are the stacks of fdlab's catalog: heartbeat (◇P), ring (◇C),
// neighbor (◇Q), amplified-neighbor (◇Q→◇P), leaderbeat (Ω), stable (stable
// Ω), gossip (Ω over heartbeat), from-perfect (◇C from ◇P), from-leader (◇C
// from Ω), weak-route (◇C from ◇Q/◇W), transform (◇C→◇P over ring, Fig. 2),
// transform-scripted (the same over a scripted ◇C) and piggyback (transform
// riding LeaderBeat beacons).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/check"
	"repro/internal/dsys"
	"repro/internal/fd/fdlab"
	"repro/internal/network"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command with its arguments and output streams; it returns the
// exit status: 2 for a usage error, reported before anything runs.
func run(args []string, stdout, stderr io.Writer) int {
	var names []string
	for _, s := range fdlab.Stacks() {
		names = append(names, s.Name)
	}
	fs := flag.NewFlagSet("fdsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	detector := fs.String("detector", "ring", strings.Join(names, " | "))
	n := fs.Int("n", 5, "number of processes")
	seed := fs.Int64("seed", 1, "random seed")
	gst := fs.Duration("gst", 100*time.Millisecond, "global stabilization time")
	delta := fs.Duration("delta", 10*time.Millisecond, "post-GST latency bound Δ")
	crash := fs.String("crash", "", "crash schedule, e.g. 2@300ms,5@600ms")
	runFor := fs.Duration("for", 4*time.Second, "virtual run duration")
	period := fs.Duration("period", 10*time.Millisecond, "heartbeat period")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	var crashes map[dsys.ProcessID]time.Duration
	stack, err := fdlab.LookupStack(*detector)
	switch {
	case err != nil:
		err = fmt.Errorf("-detector: %w", err)
	case *n < 1:
		err = fmt.Errorf("-n %d: want at least 1 process", *n)
	case *period <= 0:
		err = fmt.Errorf("-period %v: want a positive period", *period)
	default:
		if crashes, err = dsys.ParseCrashes(*crash, *n); err != nil {
			err = fmt.Errorf("-crash: %w", err)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	res := fdlab.Run(fdlab.Setup{
		N:       *n,
		Seed:    *seed,
		Net:     network.PartiallySynchronous{GST: *gst, Delta: *delta},
		Crashes: crashes,
		Build:   stack.Build(*period),
		RunFor:  *runFor,
	})

	fmt.Fprintf(stdout, "detector=%s n=%d seed=%d gst=%v delta=%v run=%v crashes=%v\n\n",
		*detector, *n, *seed, *gst, *delta, res.End, *crash)
	tr := res.Trace
	show := func(name string, v check.Verdict) {
		state := "does NOT hold"
		if v.Holds {
			state = fmt.Sprintf("holds from %v", v.From)
			if v.Witness != dsys.None {
				state += fmt.Sprintf(" (witness %v)", v.Witness)
			}
		}
		fmt.Fprintf(stdout, "  %-28s %s\n", name, state)
	}
	show("strong completeness", tr.StrongCompleteness())
	show("weak completeness", tr.WeakCompleteness())
	show("eventual strong accuracy", tr.EventualStrongAccuracy())
	show("eventual weak accuracy", tr.EventualWeakAccuracy())
	show("omega (eventual leader)", tr.OmegaProperty())
	show("◇C consistency", tr.ECConsistency())
	fmt.Fprintln(stdout)
	show("class ◇P", tr.EventuallyPerfect())
	show("class ◇S", tr.EventuallyStrong())
	show("class ◇C", tr.EventuallyConsistent())
	fmt.Fprintln(stdout)
	q := tr.QoS()
	fmt.Fprintln(stdout, "quality of service:")
	if q.WorstDetection < 0 {
		fmt.Fprintln(stdout, "  crash detection: some crash never detected")
	} else {
		fmt.Fprintf(stdout, "  crash detection: worst %v, avg %v\n", q.WorstDetection, q.AvgDetection)
	}
	fmt.Fprintf(stdout, "  false-suspicion episodes: %d (avg duration %v)\n", q.Mistakes, q.AvgMistakeDuration)
	fmt.Fprintln(stdout)
	fmt.Fprintln(stdout, "message counts by kind:")
	for _, k := range res.Messages.Kinds() {
		fmt.Fprintf(stdout, "  %-20s sent %6d  delivered %6d  dropped %5d\n",
			k, res.Messages.Sent(k), res.Messages.Delivered(k), res.Messages.Dropped(k))
	}
	return 0
}
