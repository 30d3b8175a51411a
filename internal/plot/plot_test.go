package plot

import (
	"math"
	"strings"
	"testing"
)

func TestChartBasics(t *testing.T) {
	out := Chart("demo", 20, 5,
		Series{Name: "up", Values: []float64{0, 1, 2, 3}},
		Series{Name: "down", Values: []float64{3, 2, 1, 0}},
	)
	if !strings.Contains(out, "demo") {
		t.Fatal("title missing")
	}
	if !strings.Contains(out, "* up") || !strings.Contains(out, "+ down") {
		t.Fatalf("legend missing:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 7 { // title + 5 rows + legend
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	// Max label on the top row, min on the bottom grid row.
	if !strings.Contains(lines[1], "3") {
		t.Fatalf("top label missing: %q", lines[1])
	}
	if !strings.Contains(lines[5], "0") {
		t.Fatalf("bottom label missing: %q", lines[5])
	}
}

func TestChartMonotoneSeriesOccupiesCorners(t *testing.T) {
	out := Chart("", 10, 4, Series{Name: "s", Values: []float64{0, 1, 2, 3}})
	lines := strings.Split(out, "\n")
	top := lines[0]
	bottom := lines[3]
	// Last point (max) top-right; first point (min) bottom-left.
	if top[strings.LastIndex(top, "*")] != '*' {
		t.Fatal("max missing from top row")
	}
	if !strings.Contains(bottom, "*") {
		t.Fatal("min missing from bottom row")
	}
	if strings.Index(bottom, "*") > strings.Index(top, "*") {
		t.Fatalf("orientation wrong:\n%s", out)
	}
}

func TestChartFlatSeries(t *testing.T) {
	out := Chart("", 12, 3, Series{Name: "flat", Values: []float64{1, 1, 1}})
	if out == "" {
		t.Fatal("flat series must still render")
	}
}

func TestChartEmptyAndNaN(t *testing.T) {
	if Chart("", 12, 3) != "" {
		t.Fatal("no series must render empty")
	}
	if Chart("", 12, 3, Series{Name: "nan", Values: []float64{math.NaN()}}) != "" {
		t.Fatal("all-NaN series must render empty")
	}
	out := Chart("", 12, 3, Series{Name: "mix", Values: []float64{1, math.NaN(), 2}})
	if out == "" {
		t.Fatal("mixed series must render")
	}
}

func TestChartPanicsOnTinyGrid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Chart("", 2, 1, Series{Name: "s", Values: []float64{1}})
}
