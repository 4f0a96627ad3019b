package fleet

import (
	"testing"

	"repro/internal/metrics"
)

func TestUtilizationStudySmall(t *testing.T) {
	s := DefaultUtilizationStudy(12, 1)
	s.Trainers = 4
	s.SparsePS = 4
	s.Iterations = 30
	d, err := s.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(d.TrainerCPU) != 12 || len(d.PSCPU) != 12 {
		t.Fatalf("runs recorded: %d trainer, %d ps", len(d.TrainerCPU), len(d.PSCPU))
	}
	for _, xs := range [][]float64{d.TrainerCPU, d.TrainerMem, d.TrainerNet, d.PSCPU, d.PSMem, d.PSNet} {
		for _, u := range xs {
			if u < 0 || u > 1 {
				t.Fatalf("utilization %v out of range", u)
			}
		}
	}
}

// TestFig5Shape pins the paper's Fig 5 observation across runs: trainers
// run at high utilization with modest spread; parameter servers have a
// lower mean and a wider relative distribution.
func TestFig5Shape(t *testing.T) {
	s := DefaultUtilizationStudy(25, 2)
	s.Iterations = 40
	d, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	tr := metrics.Summarize(d.TrainerCPU)
	ps := metrics.Summarize(d.PSCPU)
	if tr.Mean <= ps.Mean {
		t.Errorf("trainer CPU mean %v must exceed PS mean %v", tr.Mean, ps.Mean)
	}
	// Coefficient of variation: PS wider than trainers.
	if ps.Mean > 0 && tr.Mean > 0 {
		if ps.Std/ps.Mean <= tr.Std/tr.Mean {
			t.Errorf("PS relative spread (%v) should exceed trainers' (%v)",
				ps.Std/ps.Mean, tr.Std/tr.Mean)
		}
	}
}

func TestUtilizationStudyRejectsZeroRuns(t *testing.T) {
	s := DefaultUtilizationStudy(0, 3)
	if _, err := s.Run(); err == nil {
		t.Error("zero runs accepted")
	}
}

func TestSummariesTable(t *testing.T) {
	s := DefaultUtilizationStudy(5, 4)
	s.Trainers, s.SparsePS, s.Iterations = 2, 2, 20
	d, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	rows := d.Summaries()
	if len(rows) != 7 {
		t.Fatalf("summary rows = %d, want header + 6", len(rows))
	}
	if rows[1][0] != "trainer" || rows[4][0] != "paramsrv" {
		t.Errorf("row groups: %v", rows)
	}
}

func TestServerCountStudy(t *testing.T) {
	th, ph, p95 := ServerCountStudy(2000, 5)
	count := func(h *metrics.Histogram) (n int) {
		for _, c := range h.Counts {
			n += c
		}
		return n
	}
	if count(th) != 2000 || count(ph) != 2000 {
		t.Fatalf("histogram counts %d/%d, want every run in range", count(th), count(ph))
	}
	// Fig 9: trainer counts concentrate (one bin >= 40%).
	maxFrac := 0.0
	for _, f := range th.Fractions() {
		if f > maxFrac {
			maxFrac = f
		}
	}
	if maxFrac < 0.4 {
		t.Errorf("trainer histogram mode %v, want >= 0.4", maxFrac)
	}
	// PS counts spread more evenly than trainers.
	psMax := 0.0
	for _, f := range ph.Fractions() {
		if f > psMax {
			psMax = f
		}
	}
	if psMax >= maxFrac {
		t.Errorf("PS histogram should be flatter: mode %v vs trainer %v", psMax, maxFrac)
	}
	if p95 < 5 || p95 > 50 {
		t.Errorf("p95 trainers = %v", p95)
	}
}
