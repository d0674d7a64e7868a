package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// minCompareRuns is how many runs of a workload each side of -compare
// must hold before medians and quartiles mean anything.
const minCompareRuns = 5

// readResults loads the untraced results of a file -out wrote, grouped
// by workload.
func readResults(path string) (map[string][]*result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	by := map[string][]*result{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		r := new(result)
		if err := json.Unmarshal(sc.Bytes(), r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !r.Trace {
			by[r.Workload] = append(by[r.Workload], r)
		}
	}
	return by, sc.Err()
}

// worseBy returns how much worse b's median is than a's, as a share of
// a's (negative when b is better).
func worseBy(m metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareFiles prints, per workload and end-to-end metric, both sides'
// median and quartiles, the relative difference and the bound; ok is
// false when any pair disagrees by more than its bound in either
// direction — two sets of runs of one commit must agree both ways.
func compareFiles(w io.Writer, pathA, pathB string) (ok bool, err error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	ok = true
	fmt.Fprintf(w, "%-17s %-13s %12s %24s %12s %24s %8s %6s\n",
		"workload", "metric", "median A", "[q1, q3] A", "median B", "[q1, q3] B", "B vs A", "bound")
	for _, wl := range workloads {
		ra, rb := a[wl.name], b[wl.name]
		if len(ra) == 0 && len(rb) == 0 {
			continue
		}
		if len(ra) < minCompareRuns || len(rb) < minCompareRuns {
			return false, fmt.Errorf("%s: %d and %d runs, need at least %d on each side", wl.name, len(ra), len(rb), minCompareRuns)
		}
		for _, m := range endToEnd {
			xa, xb := metricOf(ra, m.Name), metricOf(rb, m.Name)
			ma, mb := median(xa), median(xb)
			a1, a3 := quartiles(xa)
			b1, b3 := quartiles(xb)
			diff := worseBy(m, ma, mb)
			verdict := ""
			if diff > m.Bound || worseBy(m, mb, ma) > m.Bound {
				verdict = "  DISAGREE"
				ok = false
			}
			fmt.Fprintf(w, "%-17s %-13s %12.6g %24s %12.6g %24s %+7.1f%% %5.0f%%%s\n",
				wl.name, m.Name, ma, fmt.Sprintf("[%.5g, %.5g]", a1, a3), mb, fmt.Sprintf("[%.5g, %.5g]", b1, b3),
				100*diff, 100*m.Bound, verdict)
		}
	}
	return ok, nil
}

func metricOf(rs []*result, name string) []float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = r.Metrics[name]
	}
	return xs
}
