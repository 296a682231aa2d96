package metrics

import (
	"fmt"
	"strings"
)

// Table renders aligned text tables for the experiment reports emitted
// by cmd/benchtables and the examples.
type Table struct {
	Title  string
	header []string
	rows   [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, header: header}
}

// AddRow appends a row; cells beyond the header width are dropped,
// missing cells render empty.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.header))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// AddRowf appends a row built from format/value pairs: each value is
// rendered with fmt.Sprint unless it is a float64, which uses %.3g.
func (t *Table) AddRowf(values ...any) {
	t.AddRow(Row(values...)...)
}

// Row renders values into table cells with AddRowf's formatting rules.
// Experiment cells that run off the driver goroutine build their rows
// with Row and merge them into the table afterwards.
func Row(values ...any) []string {
	cells := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			cells[i] = fmt.Sprintf("%.4g", x)
		default:
			cells[i] = fmt.Sprint(x)
		}
	}
	return cells
}

// AddRows appends pre-rendered rows in order.
func (t *Table) AddRows(rows [][]string) {
	for _, r := range rows {
		t.AddRow(r...)
	}
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// Rows returns a copy of the data rows, so tests and tooling can
// inspect cell values without reparsing the rendered text.
func (t *Table) Rows() [][]string {
	out := make([][]string, len(t.rows))
	for i, r := range t.rows {
		out[i] = append([]string(nil), r...)
	}
	return out
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			for p := len(c); p < widths[i]; p++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// MaskColumn replaces every data cell of column i with placeholder.
// Regression tests use it to blank wall-clock columns before comparing
// renderings across machines or execution modes; out-of-range columns
// are ignored.
func (t *Table) MaskColumn(i int, placeholder string) {
	if i < 0 || i >= len(t.header) {
		return
	}
	for _, row := range t.rows {
		row[i] = placeholder
	}
}

// FindColumnFrom returns the index of the first header at or after
// start containing substr, or -1 if none does. MaskColumn leaves
// headers intact, so callers masking every matching column advance
// start past each hit instead of re-searching from the front.
func (t *Table) FindColumnFrom(substr string, start int) int {
	if start < 0 {
		start = 0
	}
	for i := start; i < len(t.header); i++ {
		if strings.Contains(t.header[i], substr) {
			return i
		}
	}
	return -1
}
