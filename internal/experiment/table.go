package experiment

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"time"
)

// Table is one experiment's result as cells: key columns that name each
// row, value columns of float64 cells, and a title above the column
// header. String renders it as capbench prints it; Cell reads one cell by
// row and column name.
type Table struct {
	// Title holds every line above the column header, newlines included.
	Title string
	Keys  []Column
	Cols  []Column
	Rows  []Row
}

// Column is one column of a Table. Each verb carries the separator that
// precedes the column.
type Column struct {
	// Name is the header text and the name Cell finds a value column by.
	Name string
	// Head is the header text when it differs from Name: Table I heads
	// both of its levels' columns "Naive".
	Head string
	// HeadFmt prints the header, a key and a NaN value ("-"); empty
	// prints no header.
	HeadFmt string
	// ValFmt prints a value; empty prints the value as a time.Duration
	// with HeadFmt.
	ValFmt string
}

// Row is one row of a Table: a key per key column, a value per value
// column.
type Row struct {
	Keys []string
	Vals []float64
}

// Add appends a row.
func (t *Table) Add(keys []string, vals ...float64) {
	t.Rows = append(t.Rows, Row{Keys: keys, Vals: vals})
}

// Cell returns the value in column col of the row whose keys, joined
// with single spaces, read row. ok is false when either is absent.
func (t *Table) Cell(row, col string) (v float64, ok bool) {
	c := -1
	for i, column := range t.Cols {
		if column.Name == col {
			c = i
		}
	}
	if c < 0 {
		return 0, false
	}
	for _, r := range t.Rows {
		if strings.Join(r.Keys, " ") == row {
			return r.Vals[c], true
		}
	}
	return 0, false
}

// String renders the title, the header and one line per row.
func (t *Table) String() string {
	var b strings.Builder
	b.WriteString(t.Title)
	for _, c := range slices.Concat(t.Keys, t.Cols) {
		head := c.Name
		if c.Head != "" {
			head = c.Head
		}
		if c.HeadFmt != "" {
			fmt.Fprintf(&b, c.HeadFmt, head)
		}
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		for i, k := range r.Keys {
			fmt.Fprintf(&b, t.Keys[i].HeadFmt, k)
		}
		for i, v := range r.Vals {
			c := t.Cols[i]
			switch {
			case math.IsNaN(v):
				if c.HeadFmt != "" {
					fmt.Fprintf(&b, c.HeadFmt, "-")
				}
			case c.ValFmt == "":
				fmt.Fprintf(&b, c.HeadFmt, time.Duration(v))
			default:
				fmt.Fprintf(&b, c.ValFmt, v)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
