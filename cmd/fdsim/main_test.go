package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/fd/fdlab"
)

// TestRejectsBadInput checks that each invalid flag value exits with status
// 2 and a message naming the flag, before anything runs.
func TestRejectsBadInput(t *testing.T) {
	for _, args := range [][]string{
		{"-n", "0"},
		{"-n", "-3"},
		{"-period", "-5ms"},
		{"-period", "0"},
		{"-detector", "nope"},
		{"-crash", "9@1ms"},
		{"-for", "0s"},
		{"-for", "-1s"},
		{"-delta", "0"},
		{"-delta", "-5ms"},
		{"-gst", "-1s"},
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

// TestEveryDetectorRuns runs a short scenario for each catalog stack.
func TestEveryDetectorRuns(t *testing.T) {
	for _, st := range fdlab.Stacks() {
		t.Run(st.Name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			args := []string{"-detector", st.Name, "-n", "4", "-crash", "2@100ms", "-for", "300ms"}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit status %d: %s", code, stderr.String())
			}
			if out := stdout.String(); !strings.HasPrefix(out, "detector="+st.Name+" n=4") || !strings.Contains(out, "message counts by kind:") {
				t.Errorf("unexpected report:\n%s", out)
			}
		})
	}
}
