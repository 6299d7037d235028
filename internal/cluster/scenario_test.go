package cluster

import (
	"strings"
	"testing"
)

// TestLogsAgree pins the replicated-log agreement check on hand-built logs:
// every log must be a prefix of the longest one. The {[a], [a b], [a c]}
// case is the one a comparison against node 1's log alone lets through,
// because node 1's log is the shortest.
func TestLogsAgree(t *testing.T) {
	cases := []struct {
		name string
		logs [][]string
		want []string // substrings of the error; nil means the logs agree
	}{
		{"equal", [][]string{{"a", "b"}, {"a", "b"}, {"a", "b"}}, nil},
		{"empty", [][]string{{}, {}, nil}, nil},
		{"strict prefixes", [][]string{{"a"}, {"a", "b", "c"}, {}, {"a", "b"}}, nil},
		{"diverge past the shortest", [][]string{{"a"}, {"a", "b"}, {"a", "c"}},
			[]string{"entry 2", "p2", `"b"`, "p3", `"c"`}},
		{"diverge at the first entry", [][]string{{"x", "y"}, {"z"}},
			[]string{"entry 1", "p1", `"x"`, "p2", `"z"`}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := LogsAgree(tc.logs)
			if tc.want == nil {
				if err != nil {
					t.Fatalf("LogsAgree(%q) = %v, want agreement", tc.logs, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("LogsAgree(%q) accepted diverging logs", tc.logs)
			}
			for _, w := range tc.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("error %q does not mention %s", err, w)
				}
			}
		})
	}
}
