package metrics

import (
	"fmt"
	"strings"
)

// Table is an experiment report as typed data: every row holds one value
// per column (an int, a float, a bool, a label or a Tuple), and each
// column owns how its values render.
// String is the one place a cell becomes text, so tests and tooling read
// values (Value, Rows), never renderings.
type Table struct {
	Title string
	cols  []column
	rows  [][]any
}

// column is one column of a Table.
type column struct {
	Header string
	// Format is the fmt verb the column's numbers render with. Empty
	// renders a float64 at %.4g and any other value through fmt.Sprint.
	// A label (string) or a Tuple renders as itself in any column.
	Format string
}

// Tuple is a composite cell: several values rendered through one format,
// such as "disc %d/%d". It carries its own format because a column of
// tuples may mix kinds from row to row; its values stay typed.
type Tuple struct {
	Format string
	Values []any
}

// NewTable returns a table with the given title and plain columns.
func NewTable(title string, header ...string) *Table {
	t := &Table{Title: title}
	for _, h := range header {
		t.cols = append(t.cols, column{Header: h})
	}
	return t
}

// Format sets the named column's format and returns t.
func (t *Table) Format(header, format string) *Table {
	t.cols[t.col(header)].Format = format
	return t
}

// col returns the index of the named column; an unknown name panics.
func (t *Table) col(header string) int {
	for i, c := range t.cols {
		if c.Header == header {
			return i
		}
	}
	panic(fmt.Sprintf("metrics: table %q has no column %q", t.Title, header))
}

// AddRow appends a row of one value per column. A row of another width
// panics: a driver that adds a column to its header but not to its rows
// would otherwise render a wrong table that looks right.
func (t *Table) AddRow(values ...any) {
	if len(values) != len(t.cols) {
		panic(fmt.Sprintf("metrics: table %q: a row of %d cells under %d columns", t.Title, len(values), len(t.cols)))
	}
	t.rows = append(t.rows, append([]any(nil), values...))
}

// AddRows appends rows in order, each as AddRow.
func (t *Table) AddRows(rows [][]any) {
	for _, r := range rows {
		t.AddRow(r...)
	}
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// Value returns the value in row i of the named column.
func (t *Table) Value(i int, header string) any { return t.rows[i][t.col(header)] }

// Rows returns a copy of the data rows.
func (t *Table) Rows() [][]any {
	out := make([][]any, len(t.rows))
	for i, r := range t.rows {
		out[i] = append([]any(nil), r...)
	}
	return out
}

// render is the text of value v in column c.
func (c column) render(v any) string {
	switch x := v.(type) {
	case string:
		return x
	case Tuple:
		return fmt.Sprintf(x.Format, x.Values...)
	case float64:
		if c.Format == "" {
			return fmt.Sprintf("%.4g", x)
		}
	}
	if c.Format != "" {
		return fmt.Sprintf(c.Format, v)
	}
	return fmt.Sprint(v)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	lines := make([][]string, 2, len(t.rows)+2)
	widths := make([]int, len(t.cols))
	for i, c := range t.cols {
		lines[0] = append(lines[0], c.Header)
		widths[i] = len(c.Header)
	}
	for _, row := range t.rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = t.cols[i].render(v)
			widths[i] = max(widths[i], len(cells[i]))
		}
		lines = append(lines, cells)
	}
	for _, w := range widths {
		lines[1] = append(lines[1], strings.Repeat("-", w))
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	for _, cells := range lines {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
