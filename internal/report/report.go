// Package report renders analysis results as aligned text tables, CSV and
// JSON — the layer that turns risk-engine outputs into the paper's tables
// and figure series, including side-by-side paper-vs-measured comparisons
// for EXPERIMENTS.md.
package report

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Table is a titled grid of cells.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a row built from the given cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
		b.WriteString(strings.Repeat("=", len(t.Title)))
		b.WriteByte('\n')
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
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i < len(widths) {
				b.WriteString(pad(c, widths[i]))
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	if len(t.Header) > 0 {
		writeRow(t.Header)
		sep := make([]string, len(t.Header))
		for i := range sep {
			sep[i] = strings.Repeat("-", widths[i])
		}
		writeRow(sep)
	}
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// pad right-pads (left-aligns) text to width; numeric-looking cells are
// left-padded (right-aligned).
func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	fill := strings.Repeat(" ", w-len(s))
	if looksNumeric(s) {
		return fill + s
	}
	return s + fill
}

func looksNumeric(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		switch {
		case r >= '0' && r <= '9':
		case r == '.' || r == ',' || r == '-' || r == '+' || r == '%' || r == 'x':
		default:
			return false
		}
	}
	return true
}

// WriteCSV emits the table as CSV (header then rows).
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if len(t.Header) > 0 {
		if err := cw.Write(t.Header); err != nil {
			return fmt.Errorf("report: writing CSV header: %w", err)
		}
	}
	for i, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("report: writing CSV row %d: %w", i, err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("report: flushing CSV: %w", err)
	}
	return nil
}

// WriteJSON emits the table as a JSON object array keyed by header.
func (t *Table) WriteJSON(w io.Writer) error {
	out := make([]map[string]string, 0, len(t.Rows))
	for _, row := range t.Rows {
		obj := map[string]string{}
		for i, c := range row {
			key := fmt.Sprintf("col%d", i)
			if i < len(t.Header) {
				key = t.Header[i]
			}
			obj[key] = c
		}
		out = append(out, obj)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		return fmt.Errorf("report: encoding JSON: %w", err)
	}
	return nil
}

// Itoa formats an int with thousands separators (matching the paper's
// number style).
func Itoa(n int) string {
	neg := n < 0
	if neg {
		n = -n
	}
	s := fmt.Sprintf("%d", n)
	var parts []string
	for len(s) > 3 {
		parts = append([]string{s[len(s)-3:]}, parts...)
		s = s[:len(s)-3]
	}
	parts = append([]string{s}, parts...)
	out := strings.Join(parts, ",")
	if neg {
		return "-" + out
	}
	return out
}

// F1 formats a float with one decimal.
func F1(v float64) string { return fmt.Sprintf("%.1f", v) }

// F2 formats a float with two decimals.
func F2(v float64) string { return fmt.Sprintf("%.2f", v) }

// Pct formats a percentage with one decimal and a % suffix.
func Pct(v float64) string { return fmt.Sprintf("%.1f%%", v) }

// BarChart renders a horizontal ASCII bar chart (for figure-series
// outputs like Figure 5/8/12), scaling bars to maxWidth characters.
func BarChart(title string, labels []string, values []int, maxWidth int) string {
	if maxWidth <= 0 {
		maxWidth = 50
	}
	max := 1
	wLabel := 0
	for i, v := range values {
		if v > max {
			max = v
		}
		if len(labels) > i && len(labels[i]) > wLabel {
			wLabel = len(labels[i])
		}
	}
	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "%s\n", title)
	}
	for i, v := range values {
		label := ""
		if i < len(labels) {
			label = labels[i]
		}
		n := v * maxWidth / max
		fmt.Fprintf(&b, "%s  %s %s\n", pad(label, wLabel), strings.Repeat("#", n), Itoa(v))
	}
	return b.String()
}
