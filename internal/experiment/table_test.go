package experiment

import (
	"math"
	"testing"
	"time"
)

// TestTable renders a table with two key columns, a NaN cell, a
// header-less column and a duration column, and reads cells by name.
func TestTable(t *testing.T) {
	tab := &Table{
		Title: "Demo\nsecond line\n",
		Keys:  []Column{{Name: "mix", HeadFmt: "%-5s"}, {Name: "tier", HeadFmt: " %-3s"}},
		Cols: []Column{
			{Name: "ba", Head: "BA %", HeadFmt: " | %6s", ValFmt: " | %6.1f"},
			{Name: "lag", ValFmt: " (%3.1f)"},
			{Name: "took", HeadFmt: " %8s"},
		},
	}
	tab.Add([]string{"ord", "app"}, 95.25, 0.5, float64(1500*time.Microsecond))
	tab.Add([]string{"brow", "db"}, math.NaN(), math.NaN(), 20)

	want := "Demo\nsecond line\n" +
		"mix   tier |   BA %     took\n" +
		"ord   app |   95.2 (0.5)    1.5ms\n" +
		"brow  db  |      -     20ns\n"
	if got := tab.String(); got != want {
		t.Errorf("rendering:\n got %q\nwant %q", got, want)
	}

	if v, ok := tab.Cell("ord app", "lag"); !ok || v != 0.5 {
		t.Errorf(`Cell("ord app", "lag") = %v, %v; want 0.5, true`, v, ok)
	}
	if v, ok := tab.Cell("brow db", "took"); !ok || v != 20 {
		t.Errorf(`Cell("brow db", "took") = %v, %v; want 20, true`, v, ok)
	}
	for _, c := range [][2]string{{"ord db", "ba"}, {"ord", "ba"}, {"ord app", "BA %"}, {"ord app", "mix"}} {
		if _, ok := tab.Cell(c[0], c[1]); ok {
			t.Errorf("Cell(%q, %q) found a cell", c[0], c[1])
		}
	}
}
