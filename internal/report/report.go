// Package report formats experiment output: aligned text tables for the
// rows/series each paper table and figure reports, and small helpers for
// durations and speedups. cmd/gyanbench is its main consumer.
package report

import (
	"fmt"
	"strings"
	"time"
)

// Table is a titled, column-aligned text table.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends one row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Headers))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// Seconds formats a duration as seconds with two decimals ("3.22 s").
func Seconds(d time.Duration) string {
	return fmt.Sprintf("%.2f s", d.Seconds())
}

// Hours formats a duration as whole hours ("216 h").
func Hours(d time.Duration) string {
	return fmt.Sprintf("%.0f h", d.Hours())
}

// Speedup formats a ratio ("2.1x").
func Speedup(baseline, improved time.Duration) string {
	if improved <= 0 {
		return "inf"
	}
	return fmt.Sprintf("%.1fx", float64(baseline)/float64(improved))
}

// Pct formats a percentage with one decimal.
func Pct(v float64) string { return fmt.Sprintf("%.1f%%", v) }
