// Command fdsim runs one failure-detector scenario on the deterministic
// simulator and reports which class properties the recorded trace satisfies,
// plus message-cost statistics.
//
// Usage:
//
//	fdsim -detector ring -n 6 -crash 2@300ms,5@600ms -gst 200ms -delta 10ms -for 4s
//
// Detectors: heartbeat (◇P), ring (◇C), leaderbeat (Ω), stable (stable Ω), gossip (Ω over
// heartbeat), transform (◇C→◇P over ring, Fig. 2), piggyback (transform
// riding LeaderBeat beacons).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/check"
	"repro/internal/dsys"
	"repro/internal/fd"
	"repro/internal/fd/fdlab"
	"repro/internal/fd/heartbeat"
	"repro/internal/fd/omega"
	"repro/internal/fd/ring"
	"repro/internal/fd/transform"
	"repro/internal/network"
)

type fdPair struct {
	fd.Suspector
	fd.LeaderOracle
}

func main() {
	detector := flag.String("detector", "ring", "heartbeat | ring | leaderbeat | stable | gossip | transform | piggyback")
	n := flag.Int("n", 5, "number of processes")
	seed := flag.Int64("seed", 1, "random seed")
	gst := flag.Duration("gst", 100*time.Millisecond, "global stabilization time")
	delta := flag.Duration("delta", 10*time.Millisecond, "post-GST latency bound Δ")
	crash := flag.String("crash", "", "crash schedule, e.g. 2@300ms,5@600ms")
	runFor := flag.Duration("for", 4*time.Second, "virtual run duration")
	period := flag.Duration("period", 10*time.Millisecond, "heartbeat period")
	flag.Parse()

	crashes, err := dsys.ParseCrashes(*crash, *n)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	build, err := builder(*detector, *period)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	res := fdlab.Run(fdlab.Setup{
		N:       *n,
		Seed:    *seed,
		Net:     network.PartiallySynchronous{GST: *gst, Delta: *delta},
		Crashes: crashes,
		Build:   build,
		RunFor:  *runFor,
	})

	fmt.Printf("detector=%s n=%d seed=%d gst=%v delta=%v run=%v crashes=%v\n\n",
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
		fmt.Printf("  %-28s %s\n", name, state)
	}
	show("strong completeness", tr.StrongCompleteness())
	show("weak completeness", tr.WeakCompleteness())
	show("eventual strong accuracy", tr.EventualStrongAccuracy())
	show("eventual weak accuracy", tr.EventualWeakAccuracy())
	show("omega (eventual leader)", tr.OmegaProperty())
	show("◇C consistency", tr.ECConsistency())
	fmt.Println()
	show("class ◇P", tr.EventuallyPerfect())
	show("class ◇S", tr.EventuallyStrong())
	show("class ◇C", tr.EventuallyConsistent())
	fmt.Println()
	q := tr.QoS()
	fmt.Println("quality of service:")
	if q.WorstDetection < 0 {
		fmt.Println("  crash detection: some crash never detected")
	} else {
		fmt.Printf("  crash detection: worst %v, avg %v\n", q.WorstDetection, q.AvgDetection)
	}
	fmt.Printf("  false-suspicion episodes: %d (avg duration %v)\n", q.Mistakes, q.AvgMistakeDuration)
	fmt.Println()
	fmt.Println("message counts by kind:")
	for _, k := range res.Messages.Kinds() {
		fmt.Printf("  %-20s sent %6d  delivered %6d  dropped %5d\n",
			k, res.Messages.Sent(k), res.Messages.Delivered(k), res.Messages.Dropped(k))
	}
}

func builder(kind string, period time.Duration) (func(p dsys.Proc) any, error) {
	switch kind {
	case "heartbeat":
		return func(p dsys.Proc) any { return heartbeat.Start(p, heartbeat.Options{Period: period}) }, nil
	case "ring":
		return func(p dsys.Proc) any { return ring.Start(p, ring.Options{Period: period}) }, nil
	case "leaderbeat":
		return func(p dsys.Proc) any { return omega.StartLeaderBeat(p, omega.Options{Period: period}) }, nil
	case "stable":
		return func(p dsys.Proc) any { return omega.StartStable(p, omega.Options{Period: period}) }, nil
	case "gossip":
		return func(p dsys.Proc) any {
			hb := heartbeat.Start(p, heartbeat.Options{Period: period})
			return omega.StartFromSuspector(p, hb, omega.Options{Period: period})
		}, nil
	case "transform":
		return func(p dsys.Proc) any {
			r := ring.Start(p, ring.Options{Period: period})
			return fdPair{Suspector: transform.Start(p, r, transform.Options{Period: period}), LeaderOracle: r}
		}, nil
	case "piggyback":
		return func(p dsys.Proc) any {
			om := omega.StartLeaderBeat(p, omega.Options{Period: period})
			return fdPair{Suspector: transform.Start(p, om, transform.Options{Period: period, Piggyback: om}), LeaderOracle: om}
		}, nil
	default:
		return nil, fmt.Errorf("unknown detector %q", kind)
	}
}
