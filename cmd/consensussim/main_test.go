package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/consensus/conslab"
)

// TestRejectsBadInput checks that each invalid flag value exits with status
// 2 and a message naming the flag, before any algorithm runs or any
// warning is printed.
func TestRejectsBadInput(t *testing.T) {
	for _, args := range [][]string{
		{"-n", "0"},
		{"-n", "-3"},
		{"-loss", "1"},
		{"-loss", "-0.1"},
		{"-dup", "1.5"},
		{"-dup", "-1"},
		{"-algos", "cec,,ctc"},
		{"-algos", "cec,paxos"},
		{"-crash", "1@1ms,1@2ms"},
	} {
		t.Run(strings.Join(args, "="), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 2 {
				t.Errorf("exit status %d, want 2", code)
			}
			if stdout.Len() != 0 {
				t.Errorf("printed before rejecting:\n%s", stdout.String())
			}
			if !strings.HasPrefix(stderr.String(), args[0]) {
				t.Errorf("message %q does not name %s", stderr.String(), args[0])
			}
		})
	}
}

// TestEveryAlgorithmRuns runs a short scenario for each catalog algorithm.
func TestEveryAlgorithmRuns(t *testing.T) {
	for _, a := range conslab.Algorithms() {
		t.Run(a.Name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			args := []string{"-algos", a.Name, "-n", "3", "-crash", "3@5ms", "-for", "2s"}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit status %d: %s\n%s", code, stderr.String(), stdout.String())
			}
			if out := stdout.String(); !strings.Contains(out, a.Title+"\n  all Uniform Consensus properties hold") {
				t.Errorf("unexpected report:\n%s", out)
			}
		})
	}
}
