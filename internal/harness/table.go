package harness

import (
	"fmt"
	"strings"
)

// Table is a rendered experiment result: the rows/series a paper table
// or figure reports.
type Table struct {
	Title  string
	Note   string
	Header []string
	Rows   [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	if t.Note != "" {
		fmt.Fprintf(&b, "%s\n", t.Note)
	}
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
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		b.WriteString("\n")
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
	return b.String()
}

// f2 formats a float with 2 decimals.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// f1 formats a float with 1 decimal.
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }

// pct formats a ratio as a percentage.
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// count formats an integer count.
func count(v uint64) string { return fmt.Sprintf("%d", v) }
