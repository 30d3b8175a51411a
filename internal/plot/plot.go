// Package plot renders small ASCII line charts for the experiment CLI, so
// the "figures" of the reproduction are visible directly in a terminal
// without leaving Go. Charts are deliberately tiny: fixed-size grid, one
// rune per series, shared y-scale.
package plot

import (
	"fmt"
	"math"
	"strings"
)

// Series is one named curve. Series are marked '*', '+', 'o', 'x', … in
// declaration order.
type Series struct {
	Name   string
	Values []float64
}

var runes = []rune{'*', '+', 'o', 'x', '#', '@'}

// Chart renders the series into a w×h character grid with a y-axis legend.
// All series share the x-axis (index) and the y-scale. Returns "" when no
// series has data.
func Chart(title string, w, h int, series ...Series) string {
	if w < 8 || h < 2 {
		panic(fmt.Sprintf("plot: grid %dx%d too small", w, h))
	}
	maxLen := 0
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		if len(s.Values) > maxLen {
			maxLen = len(s.Values)
		}
		for _, v := range s.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
	}
	if maxLen == 0 || math.IsInf(lo, 1) {
		return ""
	}
	if hi == lo {
		hi = lo + 1 // flat series: draw on the bottom row
	}
	grid := make([][]rune, h)
	for r := range grid {
		grid[r] = []rune(strings.Repeat(" ", w))
	}
	for si, s := range series {
		mark := runes[si%len(runes)]
		for i, v := range s.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			col := 0
			if maxLen > 1 {
				col = i * (w - 1) / (maxLen - 1)
			}
			row := int(math.Round((hi - v) / (hi - lo) * float64(h-1)))
			grid[row][col] = mark
		}
	}
	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "%s\n", title)
	}
	for r, row := range grid {
		label := ""
		switch r {
		case 0:
			label = fmt.Sprintf("%9.3g", hi)
		case h - 1:
			label = fmt.Sprintf("%9.3g", lo)
		default:
			label = strings.Repeat(" ", 9)
		}
		fmt.Fprintf(&b, "%s |%s|\n", label, string(row))
	}
	legend := make([]string, 0, len(series))
	for si, s := range series {
		legend = append(legend, fmt.Sprintf("%c %s", runes[si%len(runes)], s.Name))
	}
	fmt.Fprintf(&b, "%s  x: 1..%d   %s\n", strings.Repeat(" ", 9), maxLen, strings.Join(legend, "   "))
	return b.String()
}
