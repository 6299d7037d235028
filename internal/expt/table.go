// Package expt contains the experiment harness that regenerates every
// quantitative claim of the paper (see the per-experiment index in
// DESIGN.md and the recorded results in EXPERIMENTS.md). Each experiment
// returns a Table for display and an error if the paper's qualitative shape
// (who wins, by what factor, where behaviour changes) failed to reproduce —
// the error is what the TestE<n> tests and cmd/ecrepro assert on.
package expt

import (
	"fmt"
	"io"
	"strings"
	"time"
	"unicode/utf8"
)

// Table is a formatted experiment result.
type Table struct {
	// ID is the experiment identifier (e.g. "E3").
	ID string
	// Title is a one-line description.
	Title string
	// Claim quotes or paraphrases the paper's claim being reproduced.
	Claim string
	// Columns are the column headers.
	Columns []string
	// Rows are the data cells, formatted.
	Rows [][]string
	// Notes are free-form remarks appended after the table.
	Notes []string
}

// AddRow appends a row, formatting each cell with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprint(c)
	}
	t.Rows = append(t.Rows, row)
}

// Fprint renders the table.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(w, "paper: %s\n", t.Claim)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = cellWidth(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && cellWidth(cell) > widths[i] {
				widths[i] = cellWidth(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// cellWidth is the display width of a cell in runes. Byte length (len) would
// treat multi-byte cells like "◇C" or "Ω" as wider than they render and
// misalign every column after them. (Combining marks and double-width CJK
// runes are not in the experiment vocabulary, so rune count is exact here.)
func cellWidth(s string) int { return utf8.RuneCountInString(s) }

func pad(s string, w int) string {
	if cellWidth(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-cellWidth(s))
}

// checkf returns an error tagged with the experiment id when cond is false.
func checkf(cond bool, id, format string, args ...any) error {
	if cond {
		return nil
	}
	return fmt.Errorf("%s shape check failed: %s", id, fmt.Sprintf(format, args...))
}

// firstErr returns the first non-nil error.
func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// msd formats a duration in milliseconds with one decimal.
func msd(d time.Duration) string {
	return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
}

// mark renders a boolean verdict.
func mark(ok bool) string {
	if ok {
		return "yes"
	}
	return "no"
}
