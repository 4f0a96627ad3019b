package metrics

import (
	"fmt"
	"math"
	"strings"
)

// BarChart renders a horizontal ASCII bar chart. Labels and values must
// align; width is the maximum bar length in characters.
func BarChart(labels []string, values []float64, width int) string {
	if len(labels) != len(values) {
		panic("metrics: labels/values length mismatch")
	}
	if width <= 0 {
		width = 40
	}
	var max float64
	for _, v := range values {
		if v > max {
			max = v
		}
	}
	labelW := 0
	for _, l := range labels {
		if len(l) > labelW {
			labelW = len(l)
		}
	}
	var b strings.Builder
	for i, l := range labels {
		n := 0
		if max > 0 {
			n = int(values[i] / max * float64(width))
		}
		fmt.Fprintf(&b, "%-*s |%s %.4g\n", labelW, l, strings.Repeat("#", n), values[i])
	}
	return b.String()
}

// Heatmap renders a value grid with row/column headers; the cell text is
// the value itself, so the output doubles as the numeric table.
func Heatmap(rowLabels, colLabels []string, values [][]float64, format string) string {
	if format == "" {
		format = "%.2f"
	}
	if len(values) != len(rowLabels) {
		panic("metrics: heatmap rows mismatch")
	}
	cells := make([][]string, len(values))
	colW := make([]int, len(colLabels))
	for j, c := range colLabels {
		colW[j] = len(c)
	}
	for i, row := range values {
		if len(row) != len(colLabels) {
			panic("metrics: heatmap cols mismatch")
		}
		cells[i] = make([]string, len(row))
		for j, v := range row {
			cells[i][j] = fmt.Sprintf(format, v)
			if len(cells[i][j]) > colW[j] {
				colW[j] = len(cells[i][j])
			}
		}
	}
	rowW := 0
	for _, r := range rowLabels {
		if len(r) > rowW {
			rowW = len(r)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-*s", rowW, "")
	for j, c := range colLabels {
		fmt.Fprintf(&b, "  %*s", colW[j], c)
	}
	b.WriteByte('\n')
	for i, r := range rowLabels {
		fmt.Fprintf(&b, "%-*s", rowW, r)
		for j := range colLabels {
			fmt.Fprintf(&b, "  %*s", colW[j], cells[i][j])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Table renders rows of cells with aligned columns; the first row is
// treated as the header and underlined.
func Table(rows [][]string) string {
	if len(rows) == 0 {
		return ""
	}
	cols := len(rows[0])
	w := make([]int, cols)
	for _, r := range rows {
		for j, c := range r {
			if j < cols && len(c) > w[j] {
				w[j] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(r []string) {
		for j := 0; j < cols; j++ {
			c := ""
			if j < len(r) {
				c = r[j]
			}
			if j > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", w[j], c)
		}
		b.WriteByte('\n')
	}
	writeRow(rows[0])
	total := cols - 1
	for _, x := range w {
		total += x + 1
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, r := range rows[1:] {
		writeRow(r)
	}
	return b.String()
}

// Sparkline compresses a series into a one-line unicode profile.
func Sparkline(values []float64) string {
	if len(values) == 0 {
		return ""
	}
	ticks := []rune("▁▂▃▄▅▆▇█")
	min, max := math.Inf(1), math.Inf(-1)
	for _, v := range values {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	var b strings.Builder
	for _, v := range values {
		i := 0
		if max > min {
			i = int((v - min) / (max - min) * float64(len(ticks)-1))
		}
		b.WriteRune(ticks[i])
	}
	return b.String()
}

// GanttRow is one labeled interval set for Gantt: a track name plus
// [start, end) pairs in arbitrary (but shared) time units.
type GanttRow struct {
	Label     string
	Intervals [][2]float64
}

// Gantt renders labeled interval tracks as an ASCII timeline. The time
// axis spans [t0, t1] over width characters; each row paints '#' where
// any of its intervals cover the column. Used for per-step span
// timelines ("which phase ran when, on which shard").
func Gantt(rows []GanttRow, t0, t1 float64, width int) string {
	if width <= 0 {
		width = 80
	}
	if t1 <= t0 {
		t1 = t0 + 1
	}
	labelW := 0
	for _, r := range rows {
		if len(r.Label) > labelW {
			labelW = len(r.Label)
		}
	}
	scale := float64(width) / (t1 - t0)
	var b strings.Builder
	for _, r := range rows {
		cells := make([]byte, width)
		for i := range cells {
			cells[i] = '.'
		}
		for _, iv := range r.Intervals {
			lo := int(math.Floor((iv[0] - t0) * scale))
			hi := int(math.Ceil((iv[1] - t0) * scale))
			if hi <= lo {
				hi = lo + 1
			}
			for c := lo; c < hi; c++ {
				if c >= 0 && c < width {
					cells[c] = '#'
				}
			}
		}
		fmt.Fprintf(&b, "%-*s |%s|\n", labelW, r.Label, cells)
	}
	return b.String()
}

// F formats a float with %.4g, the default numeric cell format.
func F(v float64) string { return fmt.Sprintf("%.4g", v) }

// F2 formats a float with two decimals.
func F2(v float64) string { return fmt.Sprintf("%.2f", v) }
