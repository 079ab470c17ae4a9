package metric

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestReportAndLast(t *testing.T) {
	b := NewBus(0)
	if err := b.ReportValue("app.rt", 5, time.Second); err != nil {
		t.Fatalf("ReportValue: %v", err)
	}
	if err := b.ReportValue("app.rt", 7, 2*time.Second); err != nil {
		t.Fatalf("ReportValue: %v", err)
	}
	s, ok := b.Last("app.rt")
	if !ok || s.Value != 7 || s.At != 2*time.Second {
		t.Fatalf("Last = %+v, %v", s, ok)
	}
	if _, ok := b.Last("missing"); ok {
		t.Fatal("Last on missing metric reported ok")
	}
}

func TestReportEmptyNameFails(t *testing.T) {
	b := NewBus(0)
	if err := b.Report(Sample{}); err == nil {
		t.Fatal("empty-name sample accepted")
	}
}

func TestHistoryLimit(t *testing.T) {
	b := NewBus(3)
	for i := 0; i < 10; i++ {
		if err := b.ReportValue("m", float64(i), time.Duration(i)*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	w := b.Window("m", 0)
	if len(w) != 3 || w[0].Value != 7 || w[2].Value != 9 {
		t.Fatalf("window after trim = %+v", w)
	}
}

func TestWindowSince(t *testing.T) {
	b := NewBus(0)
	for i := 0; i < 5; i++ {
		if err := b.ReportValue("m", float64(i), time.Duration(i)*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	w := b.Window("m", 3*time.Second)
	if len(w) != 2 || w[0].Value != 3 {
		t.Fatalf("Window(3s) = %+v", w)
	}
	if got := b.Window("none", 0); len(got) != 0 {
		t.Fatalf("Window on missing = %+v", got)
	}
}

func TestWindowStats(t *testing.T) {
	b := NewBus(0)
	for i, v := range []float64{4, 2, 6} {
		if err := b.ReportValue("m", v, time.Duration(i)*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	st := b.WindowStats("m", 0)
	if st.Count != 3 || st.Mean != 4 || st.Min != 2 || st.Max != 6 || st.Last != 6 {
		t.Fatalf("stats = %+v", st)
	}
	if empty := b.WindowStats("none", 0); empty.Count != 0 {
		t.Fatalf("empty stats = %+v", empty)
	}
}

func TestNames(t *testing.T) {
	b := NewBus(0)
	for _, n := range []string{"zeta", "alpha"} {
		if err := b.ReportValue(n, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	names := b.Names()
	if len(names) != 2 || names[0] != "alpha" {
		t.Fatalf("Names = %v", names)
	}
}

func TestConcurrentReporters(t *testing.T) {
	b := NewBus(0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if err := b.ReportValue("shared", float64(i), time.Duration(i)); err != nil {
					t.Errorf("Report: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := len(b.Window("shared", 0)); got != 800 {
		t.Fatalf("samples = %d, want 800", got)
	}
}

// Property: WindowStats bounds are consistent (Min <= Mean <= Max) and Last
// equals the final value for any sample sequence.
func TestPropertyStatsConsistent(t *testing.T) {
	f := func(raw []int16) bool {
		vals := make([]float64, len(raw))
		b := NewBus(0)
		for i, r := range raw {
			vals[i] = float64(r) / 8 // bounded, finite inputs
			if err := b.ReportValue("m", vals[i], time.Duration(i)); err != nil {
				return false
			}
		}
		st := b.WindowStats("m", 0)
		if len(vals) == 0 {
			return st.Count == 0
		}
		return st.Count == len(vals) &&
			st.Min <= st.Mean+1e-9 && st.Mean <= st.Max+1e-9 &&
			st.Last == vals[len(vals)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
