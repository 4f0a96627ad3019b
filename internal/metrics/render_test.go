package metrics

import (
	"strings"
	"testing"
)

func TestBarChart(t *testing.T) {
	s := BarChart([]string{"a", "bb"}, []float64{2, 4}, 8)
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines:\n%s", len(lines), s)
	}
	// Max value gets the full width, half value gets half.
	if !strings.Contains(lines[1], strings.Repeat("#", 8)) {
		t.Errorf("max bar not full width: %q", lines[1])
	}
	if !strings.Contains(lines[0], "#### ") || strings.Contains(lines[0], "#####") {
		t.Errorf("half bar wrong: %q", lines[0])
	}
	// Labels pad to equal width.
	if !strings.HasPrefix(lines[0], "a  |") {
		t.Errorf("label padding wrong: %q", lines[0])
	}
	if !strings.Contains(lines[1], "4") || !strings.Contains(lines[0], "2") {
		t.Error("values missing from chart")
	}
}

func TestBarChartZeroWidthAndZeroMax(t *testing.T) {
	// width <= 0 falls back to the default; all-zero values draw no bars.
	s := BarChart([]string{"x"}, []float64{0}, 0)
	if strings.Contains(s, "#") {
		t.Errorf("zero values should render no bar: %q", s)
	}
}

func TestBarChartPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BarChart([]string{"a"}, []float64{1, 2}, 10)
}

func TestHeatmap(t *testing.T) {
	s := Heatmap([]string{"r1", "row2"}, []string{"c1", "c2"},
		[][]float64{{1, 2}, {3, 4.5}}, "%.1f")
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines:\n%s", len(lines), s)
	}
	if !strings.Contains(lines[0], "c1") || !strings.Contains(lines[0], "c2") {
		t.Errorf("header missing columns: %q", lines[0])
	}
	if !strings.Contains(lines[2], "row2") || !strings.Contains(lines[2], "4.5") {
		t.Errorf("row2 wrong: %q", lines[2])
	}
	// Default format applies when empty.
	s2 := Heatmap([]string{"r"}, []string{"c"}, [][]float64{{1.234}}, "")
	if !strings.Contains(s2, "1.23") {
		t.Errorf("default %%'.2f' format not applied: %q", s2)
	}
}

func TestHeatmapPanicsOnRaggedRows(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Heatmap([]string{"r"}, []string{"c1", "c2"}, [][]float64{{1}}, "")
}

func TestTable(t *testing.T) {
	s := Table([][]string{{"name", "val"}, {"throughput", "12"}, {"x", "3"}})
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines:\n%s", len(lines), s)
	}
	if !strings.HasPrefix(lines[0], "name") {
		t.Errorf("header wrong: %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "---") || strings.ContainsAny(lines[1], "abc") {
		t.Errorf("underline wrong: %q", lines[1])
	}
	// Columns align: "val" starts at the same offset in every row.
	off := strings.Index(lines[0], "val")
	if got := strings.Index(lines[2], "12"); got != off {
		t.Errorf("column misaligned: header at %d, cell at %d", off, got)
	}
	if Table(nil) != "" {
		t.Error("empty table should render empty string")
	}
	// Short rows pad with empty cells instead of panicking.
	if s := Table([][]string{{"a", "b"}, {"only"}}); !strings.Contains(s, "only") {
		t.Errorf("short row dropped: %q", s)
	}
}

func TestSparkline(t *testing.T) {
	if Sparkline(nil) != "" {
		t.Error("empty series should render empty string")
	}
	s := Sparkline([]float64{0, 1, 2, 3})
	runes := []rune(s)
	if len(runes) != 4 {
		t.Fatalf("got %d runes: %q", len(runes), s)
	}
	if runes[0] != '▁' || runes[3] != '█' {
		t.Errorf("extremes wrong: %q", s)
	}
	// Constant series renders the lowest tick everywhere.
	flat := []rune(Sparkline([]float64{5, 5, 5}))
	for _, r := range flat {
		if r != '▁' {
			t.Errorf("constant series should be flat: %q", string(flat))
		}
	}
}

func TestGantt(t *testing.T) {
	rows := []GanttRow{
		{Label: "rank 0", Intervals: [][2]float64{{0, 5}, {8, 10}}},
		{Label: "ingest", Intervals: [][2]float64{{5, 8}}},
	}
	out := Gantt(rows, 0, 10, 10)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines: %q", len(lines), out)
	}
	if !strings.Contains(lines[0], "rank 0 |#####...##|") {
		t.Errorf("row 0 = %q", lines[0])
	}
	if !strings.Contains(lines[1], "ingest |.....###..|") {
		t.Errorf("row 1 = %q", lines[1])
	}
	// Sub-column intervals still paint at least one cell.
	tiny := Gantt([]GanttRow{{Label: "x", Intervals: [][2]float64{{0.1, 0.11}}}}, 0, 100, 10)
	if !strings.Contains(tiny, "#") {
		t.Errorf("tiny interval invisible: %q", tiny)
	}
	// Degenerate range must not divide by zero.
	if s := Gantt(rows, 5, 5, 10); s == "" {
		t.Error("degenerate range rendered nothing")
	}
}

func TestFormatters(t *testing.T) {
	if F(1234.5678) != "1235" {
		t.Errorf("F = %q", F(1234.5678))
	}
	if F2(1.236) != "1.24" {
		t.Errorf("F2 = %q", F2(1.236))
	}
}
