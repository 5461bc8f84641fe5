// Package bench regenerates every table and figure of the HERO-Sign
// evaluation (§IV): it runs the baseline and HERO-Sign configurations on
// the simulated devices and formats the same rows/series the paper
// reports, alongside the paper's published values where applicable so the
// shape comparison is immediate.
package bench

import (
	"fmt"
	"io"
	"strings"
)

// Table is one rendered experiment.
type Table struct {
	ID     string     `json:"id"`
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Notes  []string   `json:"notes,omitempty"`
}

// Report is the machine-readable form of a run (herosign-bench -json): the
// settings that determine every modeled number, and the tables. It carries
// no timestamp or wall time, so two runs at the same settings are
// byte-identical; BENCH_modeled.json is one.
type Report struct {
	Device      string   `json:"device"`
	Batch       int      `json:"batch"`
	Sample      int      `json:"sample"`
	Experiments []*Table `json:"experiments"`
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f2x(v float64) string { return fmt.Sprintf("%.2fx", v) }
func f4(v float64) string  { return fmt.Sprintf("%.4f", v) }
func d0(v int64) string    { return fmt.Sprintf("%d", v) }
