// Command consensussim runs one Uniform Consensus scenario per algorithm on
// the deterministic simulator and reports decisions, rounds and message
// costs side by side.
//
// Usage:
//
//	consensussim -n 5 -crash 1@15ms -gst 50ms -delta 5ms -algos cec,ctc,mrc
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/consensus"
	"repro/internal/consensus/cec"
	"repro/internal/consensus/conslab"
	"repro/internal/consensus/ctc"
	"repro/internal/consensus/mrc"
	"repro/internal/dsys"
	"repro/internal/fd/heartbeat"
	"repro/internal/fd/omega"
	"repro/internal/fd/ring"
	"repro/internal/network"
	"repro/internal/rbcast"
)

func main() {
	n := flag.Int("n", 5, "number of processes")
	seed := flag.Int64("seed", 1, "random seed")
	gst := flag.Duration("gst", 50*time.Millisecond, "global stabilization time")
	delta := flag.Duration("delta", 5*time.Millisecond, "post-GST latency bound Δ")
	crash := flag.String("crash", "", "crash schedule, e.g. 1@15ms,4@40ms")
	algos := flag.String("algos", "cec,ctc,mrc", "algorithms to run (cec = ◇C paper, ctc = Chandra–Toueg ◇S, mrc = MR-style Ω)")
	loss := flag.Float64("loss", 0, "fair-lossy drop probability on every link (0..1)")
	dup := flag.Float64("dup", 0, "duplication probability per extra copy (0..1)")
	runFor := flag.Duration("for", 30*time.Second, "virtual horizon")
	flag.Parse()

	crashes, err := dsys.ParseCrashes(*crash, *n)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	fmt.Printf("n=%d seed=%d gst=%v delta=%v crashes=%q  (f_max=%d)\n\n", *n, *seed, *gst, *delta, *crash, dsys.MaxFaulty(*n))
	if len(crashes) > dsys.MaxFaulty(*n) {
		fmt.Fprintf(os.Stderr, "warning: %d crashes exceeds f < n/2; termination is not guaranteed\n", len(crashes))
	}

	runners := map[string]conslab.Runner{
		"cec": func(p dsys.Proc, rb *rbcast.Module, v any, opt consensus.Options) consensus.Result {
			return cec.Propose(p, ring.Start(p, ring.Options{}), rb, v, opt)
		},
		"ctc": func(p dsys.Proc, rb *rbcast.Module, v any, opt consensus.Options) consensus.Result {
			return ctc.Propose(p, heartbeat.Start(p, heartbeat.Options{}), rb, v, opt)
		},
		"mrc": func(p dsys.Proc, rb *rbcast.Module, v any, opt consensus.Options) consensus.Result {
			return mrc.Propose(p, omega.StartLeaderBeat(p, omega.Options{}), rb, v, opt)
		},
	}
	names := map[string]string{
		"cec": "◇C consensus over ring ◇C (this paper)",
		"ctc": "Chandra–Toueg ◇S over heartbeat ◇P",
		"mrc": "MR-style Ω consensus over LeaderBeat Ω",
	}

	failed := false
	for _, a := range strings.Split(*algos, ",") {
		a = strings.TrimSpace(a)
		run, ok := runners[a]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown algorithm %q\n", a)
			os.Exit(2)
		}
		var net network.Network = network.PartiallySynchronous{GST: *gst, Delta: *delta}
		if *loss > 0 {
			net = network.FairLossy{P: *loss, Under: net}
		}
		if *dup > 0 {
			net = network.Duplicating{P: *dup, Under: net}
		}
		res := conslab.Run(conslab.Setup{
			N:       *n,
			Seed:    *seed,
			Net:     net,
			Crashes: crashes,
			Run:     run,
			RunFor:  *runFor,
		})
		fmt.Printf("%s\n", names[a])
		if err := res.Verify(*n); err != nil {
			failed = true
			fmt.Printf("  PROPERTIES VIOLATED: %v\n", err)
		} else {
			fmt.Printf("  all Uniform Consensus properties hold\n")
		}
		for _, id := range dsys.Pids(*n) {
			if d, ok := res.Log.Decided(id); ok {
				fmt.Printf("  %v decided %-6v at %8v in round %d\n", id, d.Value, d.At, d.Round)
			} else if _, crashed := crashes[id]; crashed {
				fmt.Printf("  %v crashed before deciding\n", id)
			} else {
				fmt.Printf("  %v did not decide within the horizon\n", id)
			}
		}
		fmt.Printf("  total protocol messages: %d\n\n", res.Messages.TotalSent())
	}
	if failed {
		os.Exit(1)
	}
}
