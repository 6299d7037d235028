// Command consensussim runs one Uniform Consensus scenario per algorithm on
// the deterministic simulator and reports decisions, rounds and message
// costs side by side.
//
// Usage:
//
//	consensussim -n 5 -crash 1@15ms -gst 50ms -delta 5ms -algos cec,ctc,mrc
//
// Algorithms are conslab's catalog, each over the detector it is paired
// with: cec (◇C consensus over ring ◇C, this paper), ctc (Chandra–Toueg ◇S
// over heartbeat ◇P) and mrc (MR-style Ω consensus over LeaderBeat Ω).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/consensus/conslab"
	"repro/internal/dsys"
	"repro/internal/network"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command with its arguments and output streams; it returns the
// exit status: 2 for a usage error, reported before anything runs, and 1
// when a run violates a consensus property.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("consensussim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	n := fs.Int("n", 5, "number of processes")
	seed := fs.Int64("seed", 1, "random seed")
	gst := fs.Duration("gst", 50*time.Millisecond, "global stabilization time")
	delta := fs.Duration("delta", 5*time.Millisecond, "post-GST latency bound Δ")
	crash := fs.String("crash", "", "crash schedule, e.g. 1@15ms,4@40ms")
	algos := fs.String("algos", "cec,ctc,mrc", "algorithms to run (cec = ◇C paper, ctc = Chandra–Toueg ◇S, mrc = MR-style Ω)")
	loss := fs.Float64("loss", 0, "fair-lossy drop probability on every link, in [0,1)")
	dup := fs.Float64("dup", 0, "duplication probability per extra copy, in [0,1]")
	runFor := fs.Duration("for", 30*time.Second, "virtual horizon")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	var crashes map[dsys.ProcessID]time.Duration
	var err error
	switch {
	case *n < 1:
		err = fmt.Errorf("-n %d: want at least 1 process", *n)
	case !(*loss >= 0 && *loss < 1):
		err = fmt.Errorf("-loss %v: want a probability in [0,1)", *loss)
	case !(*dup >= 0 && *dup <= 1):
		err = fmt.Errorf("-dup %v: want a probability in [0,1]", *dup)
	default:
		if crashes, err = dsys.ParseCrashes(*crash, *n); err != nil {
			err = fmt.Errorf("-crash: %w", err)
		}
	}
	var chosen []conslab.Algorithm
	for _, name := range strings.Split(*algos, ",") {
		a, lerr := conslab.LookupAlgorithm(strings.TrimSpace(name))
		if err == nil && lerr != nil {
			err = fmt.Errorf("-algos: %w", lerr)
		}
		chosen = append(chosen, a)
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	fmt.Fprintf(stdout, "n=%d seed=%d gst=%v delta=%v crashes=%q  (f_max=%d)\n\n", *n, *seed, *gst, *delta, *crash, dsys.MaxFaulty(*n))
	if len(crashes) > dsys.MaxFaulty(*n) {
		fmt.Fprintf(stderr, "warning: %d crashes exceeds f < n/2; termination is not guaranteed\n", len(crashes))
	}
	status := 0
	for _, a := range chosen {
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
			Run:     a.Paired,
			RunFor:  *runFor,
		})
		fmt.Fprintf(stdout, "%s\n", a.Title)
		if err := res.Verify(*n); err != nil {
			status = 1
			fmt.Fprintf(stdout, "  PROPERTIES VIOLATED: %v\n", err)
		} else {
			fmt.Fprintf(stdout, "  all Uniform Consensus properties hold\n")
		}
		for _, id := range dsys.Pids(*n) {
			if d, ok := res.Log.Decided(id); ok {
				fmt.Fprintf(stdout, "  %v decided %-6v at %8v in round %d\n", id, d.Value, d.At, d.Round)
			} else if _, crashed := crashes[id]; crashed {
				fmt.Fprintf(stdout, "  %v crashed before deciding\n", id)
			} else {
				fmt.Fprintf(stdout, "  %v did not decide within the horizon\n", id)
			}
		}
		fmt.Fprintf(stdout, "  total protocol messages: %d\n\n", res.Messages.TotalSent())
	}
	return status
}
