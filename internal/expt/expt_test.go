package expt

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The experiment functions are exercised end to end in quick mode; each test
// asserts the paper's qualitative shape reproduced (the error channel) and
// that the table rendered. The tables of experiments with no wall-clock
// cells (every one the registry does not mark WallClock) must also match
// testdata/<ID>.golden byte for byte: a refactor that claims to keep the
// tables unchanged is checked here. Two WallClock experiments have a
// deterministic part that is pinned the same way: E14's columns up to
// detect (E14.golden) and E18's simulated matrix (E18-sim.golden). After a
// change that is meant to move a table, regenerate the files with
//
//	go test -run 'TestE([1-9]|1[0-2]|14|18Sim|19)$' ./internal/expt -update

var update = flag.Bool("update", false, "rewrite testdata/<ID>.golden from the quick-mode tables")

func runExp(t *testing.T, name string, fn func(bool) (*Table, error)) *Table {
	t.Helper()
	tb, err := fn(true)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	out := render(tb)
	if !strings.Contains(out, tb.ID) || len(tb.Rows) == 0 {
		t.Fatalf("%s: table did not render properly:\n%s", name, out)
	}
	t.Logf("\n%s", out)
	for _, e := range Experiments() {
		if e.ID == name && !e.WallClock {
			checkGolden(t, name, out)
		}
	}
	return tb
}

// render returns the table as Fprint prints it.
func render(tb *Table) string {
	var sb strings.Builder
	tb.Fprint(&sb)
	return sb.String()
}

// checkGolden compares a rendered table with testdata/<name>.golden, or
// rewrites the file under -update.
func checkGolden(t *testing.T, name, out string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: %v (generate it with -update)", name, err)
	}
	if out != string(want) {
		t.Errorf("%s: table differs from %s:\n%s", name, path, firstDiff(string(want), out))
	}
}

func TestE1(t *testing.T)  { runExp(t, "E1", E1ClassProperties) }
func TestE2(t *testing.T)  { runExp(t, "E2", E2TransformCorrectness) }
func TestE3(t *testing.T)  { runExp(t, "E3", E3MessagesPerPeriod) }
func TestE4(t *testing.T)  { runExp(t, "E4", E4DetectionLatency) }
func TestE5(t *testing.T)  { runExp(t, "E5", E5RoundCosts) }
func TestE6(t *testing.T)  { runExp(t, "E6", E6RoundsAfterStability) }
func TestE7(t *testing.T)  { runExp(t, "E7", E7NackTolerance) }
func TestE8(t *testing.T)  { runExp(t, "E8", E8MergedPhaseTradeoff) }
func TestE9(t *testing.T)  { runExp(t, "E9", E9AllSelfTrust) }
func TestE10(t *testing.T) { runExp(t, "E10", E10ConsensusSoak) }
func TestE11(t *testing.T) { runExp(t, "E11", E11StabilityWindow) }
func TestE12(t *testing.T) { runExp(t, "E12", E12DetectorQoS) }
func TestE13(t *testing.T) { runExp(t, "E13", E13MeshChaos) }

// TestE14 also pins E14's deterministic columns — n, detector, msgs/period,
// expected and detect — leaving out wall and events/s.
func TestE14(t *testing.T) {
	tb := runExp(t, "E14", E14ScalingSweep)
	det := *tb
	det.Columns = tb.Columns[:5]
	det.Rows = nil
	for _, row := range tb.Rows {
		det.Rows = append(det.Rows, row[:5])
	}
	checkGolden(t, "E14", render(&det))
}

// TestE19 is the soak's quick smoke: 90 seconds of virtual time through the
// same churn + GST-oscillation machinery the full hours-long soak uses.
func TestE19(t *testing.T) { runExp(t, "E19", E19LongHorizonSoak) }

// E16 spawns real OS processes (ecnode/ecload) and injects SIGKILLs; in
// -short mode it is skipped like the cross-process tests of
// internal/cluster.
func TestE16(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes; skipped in -short")
	}
	runExp(t, "E16", E16ClusterKillRestart)
}

// E18's cluster phase also spawns real OS processes (3 ecnodes with UDP
// heartbeats); skipped in -short alongside E16.
func TestE18(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes; skipped in -short")
	}
	runExp(t, "E18", E18ScenarioMatrix)
}

// TestE18Sim pins E18's simulated matrix, which TestE18 (skipped in -short
// for its process phase) would otherwise be the only test to run.
func TestE18Sim(t *testing.T) {
	tb, err := e18SimMatrix(true)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "E18-sim", render(tb))
}

// TestTableNonASCIIAlignment is the regression for pad measuring width in
// bytes: multi-byte cells like "◇P" (3-byte runes) made len(s) overshoot the
// rendered width, so every column after a non-ASCII cell drifted out of
// alignment. Alignment is now computed in runes.
func TestTableNonASCIIAlignment(t *testing.T) {
	tb := &Table{
		ID: "EX", Title: "align", Columns: []string{"detector", "msgs"},
	}
	tb.AddRow("◇P", 1)        // 2 runes, 7 bytes
	tb.AddRow("ascii-one", 2) // widest cell: 9 runes
	tb.AddRow("Ω", 3)
	var sb strings.Builder
	tb.Fprint(&sb)
	var starts []int
	for _, line := range strings.Split(sb.String(), "\n") {
		if !strings.Contains(line, "  ") || !strings.HasPrefix(line, "  ") {
			continue
		}
		cells := strings.Fields(line)
		if len(cells) != 2 {
			continue
		}
		// Column 2 must start at the same rune offset on every row.
		starts = append(starts, len([]rune(line[:strings.LastIndex(line, cells[1])])))
	}
	if len(starts) < 4 {
		t.Fatalf("expected at least header+3 rows, got %d aligned lines:\n%s", len(starts), sb.String())
	}
	for _, s := range starts[1:] {
		if s != starts[0] {
			t.Fatalf("column 2 misaligned (rune offsets %v):\n%s", starts, sb.String())
		}
	}
	if w := cellWidth("◇P"); w != 2 {
		t.Fatalf("cellWidth(◇P) = %d, want 2 runes", w)
	}
	if got := pad("◇P", 4); got != "◇P  " {
		t.Fatalf("pad(◇P, 4) = %q, want two trailing spaces", got)
	}
}

func TestTableFormatting(t *testing.T) {
	tb := &Table{
		ID: "EX", Title: "demo", Claim: "c",
		Columns: []string{"a", "longcolumn"},
	}
	tb.AddRow(1, "x")
	tb.AddRow("wider-cell", 2)
	tb.Notes = append(tb.Notes, "a note")
	var sb strings.Builder
	tb.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"EX — demo", "paper: c", "longcolumn", "wider-cell", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
}
