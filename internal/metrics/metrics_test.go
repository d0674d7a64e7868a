package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestPurposeString(t *testing.T) {
	if Construction.String() != "construction" || Consensus.String() != "consensus" {
		t.Fatal("purpose names wrong")
	}
	if Purpose(9).String() == "" {
		t.Fatal("unknown purpose must render")
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Name = "test"
	s.Append(1, 10)
	s.Append(2, 20)
	if s.Len() != 2 {
		t.Fatal("Len wrong")
	}
	last, err := s.Last()
	if err != nil || last != 20 {
		t.Fatalf("Last = %v, %v", last, err)
	}
	var empty Series
	if _, err := empty.Last(); err == nil {
		t.Fatal("Last on empty series must error")
	}
}

func TestCDFBasics(t *testing.T) {
	c, err := NewCDF([]float64{3, 1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if c.Min() != 1 || c.Max() != 4 {
		t.Fatal("min/max wrong")
	}
	if got := c.Mean(); got != 2.5 {
		t.Fatalf("Mean = %v", got)
	}
}

func TestCDFQuantile(t *testing.T) {
	c, _ := NewCDF([]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100})
	if q := c.Quantile(0.5); q != 50 {
		t.Fatalf("median = %v, want 50", q)
	}
	if q := c.Quantile(0.9); q != 90 {
		t.Fatalf("p90 = %v, want 90", q)
	}
	if c.Quantile(0) != 10 || c.Quantile(1) != 100 {
		t.Fatal("extreme quantiles wrong")
	}
}

func TestCDFEmpty(t *testing.T) {
	if _, err := NewCDF(nil); err == nil {
		t.Fatal("empty CDF accepted")
	}
}

func TestCDFDoesNotMutateInput(t *testing.T) {
	in := []float64{3, 1, 2}
	if _, err := NewCDF(in); err != nil {
		t.Fatal(err)
	}
	if in[0] != 3 {
		t.Fatal("NewCDF sorted the caller's slice")
	}
}

// TestQuickCDFQuantileMonotone: for any finite samples, NewCDF
// succeeds, its quantiles never decrease in q, and they run from Min
// to Max.
func TestQuickCDFQuantileMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		samples := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				samples = append(samples, v)
			}
		}
		if len(samples) == 0 {
			return true
		}
		c, err := NewCDF(samples)
		if err != nil {
			return false
		}
		prev := c.Quantile(0)
		for q := 0.05; q <= 1; q += 0.05 {
			v := c.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return c.Quantile(0) == c.Min() && c.Quantile(1) == c.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCDFQuantileIsNearestRank(t *testing.T) {
	// Nearest rank: Quantile(q) is the smallest sample with at least a
	// q share of the samples at or below it.
	f := func(raw []int8, qRaw uint16) bool {
		if len(raw) == 0 {
			return true
		}
		samples := make([]float64, len(raw))
		for i, v := range raw {
			samples[i] = float64(v)
		}
		c, err := NewCDF(samples)
		if err != nil {
			return false
		}
		q := float64(qRaw%1000+1) / 1001 // strictly inside (0, 1)
		x := c.Quantile(q)
		atOrBelow, below := 0, 0
		for _, v := range samples {
			if v <= x {
				atOrBelow++
			}
			if v < x {
				below++
			}
		}
		want := q * float64(len(samples))
		return float64(atOrBelow) >= want && float64(below) < want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTableAndCSV(t *testing.T) {
	a := &Series{Name: "pbft"}
	a.Append(1, 100)
	a.Append(2, 200)
	b := &Series{Name: "2ldag"}
	b.Append(1, 1)
	b.Append(2, 2)
	tbl := Table("storage", a, b)
	if !strings.Contains(tbl, "pbft") || !strings.Contains(tbl, "2ldag") {
		t.Fatal("table missing series names")
	}
	if !strings.Contains(tbl, "200") {
		t.Fatal("table missing values")
	}
	csv := CSV(a, b)
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if lines[0] != "x,pbft,2ldag" {
		t.Fatalf("csv header = %q", lines[0])
	}
	if lines[2] != "2,200,2" {
		t.Fatalf("csv row = %q", lines[2])
	}
}

func TestUnitConversions(t *testing.T) {
	if BitsToMB(8e6) != 1 {
		t.Fatal("BitsToMB wrong")
	}
	if BitsToMb(1e6) != 1 {
		t.Fatal("BitsToMb wrong")
	}
}
