package main

import "testing"

func TestParseBenchLine(t *testing.T) {
	cases := []struct {
		line       string
		name       string
		ns, allocs float64
		ok         bool
	}{
		{"BenchmarkHotpathRoot-4   100   583548 ns/op   17544 B/op   3 allocs/op", "BenchmarkHotpathRoot", 583548, 3, true},
		{"BenchmarkHotpathRoot-4   100   583548 ns/op", "BenchmarkHotpathRoot", 583548, -1, true},
		{"BenchmarkHotpathRootOfBody-2  2352  509821 ns/op  981.00 MB/s  17536 B/op  2 allocs/op", "BenchmarkHotpathRootOfBody", 509821, 2, true},
		{"BenchmarkHotpathSearchPrefix/prefix=356B-2  100  26630 ns/op  276 B/op  4 allocs/op", "BenchmarkHotpathSearchPrefix/prefix=356B", 26630, 4, true},
		{"BenchmarkNoSuffix 10 1.5 ns/op 0 B/op 0 allocs/op", "BenchmarkNoSuffix", 1.5, 0, true},
		{"ok  	github.com/twoldag/twoldag/internal/node	3.9s", "", 0, 0, false},
		{"BenchmarkBroken-2", "", 0, 0, false},
	}
	for _, c := range cases {
		name, ns, allocs, ok := parseBenchLine(c.line)
		if ok != c.ok || name != c.name || ns != c.ns || (ok && allocs != c.allocs) {
			t.Errorf("parseBenchLine(%q) = %q, %v, %v, %v; want %q, %v, %v, %v",
				c.line, name, ns, allocs, ok, c.name, c.ns, c.allocs, c.ok)
		}
	}
}

func TestAllocLimit(t *testing.T) {
	count := func(n float64) row { return row{AllocsPerOp: &n} }
	// recorded count, the most that passes at tolerance 0.20, the least
	// that fails.
	for _, c := range []struct{ recorded, pass, fail float64 }{
		{0, 1, 2}, {1, 2, 3}, {9, 11, 12}, {20, 25, 26}, {7579, 9095, 9096},
	} {
		limit, ok := allocLimit(count(c.recorded), 0.20)
		if !ok || c.pass > limit || c.fail <= limit {
			t.Errorf("allocLimit(%v) = %v, %v; want %v to pass and %v to fail", c.recorded, limit, ok, c.pass, c.fail)
		}
		// A line without an allocs/op column parses to -1: always passes.
		if -1 > limit {
			t.Errorf("allocLimit(%v) = %v rejects a missing allocs/op column", c.recorded, limit)
		}
	}
	if _, ok := allocLimit(row{}, 0.20); ok {
		t.Error("a row without allocs_per_op must not be guarded on allocations")
	}
}
