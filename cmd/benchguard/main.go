// Command benchguard compares `go test -bench` output against the
// checked-in hot-path baseline (BENCH_hotpath.json) and fails when a
// benchmark regressed beyond the tolerance. CI pipes the benchmark
// smoke through it so hot-path regressions surface as red builds
// instead of silent drift.
//
// Usage:
//
//	go test -run '^$' -bench Hotpath -benchtime 100x -benchmem ./... | \
//	    go run ./cmd/benchguard -baseline BENCH_hotpath.json -tolerance 0.20
//
// Only benchmarks present in the baseline's "micro" list are checked;
// new benchmarks pass freely until a baseline entry is recorded, and a
// "micro" row with no result line in the input fails the run by name —
// a deleted, renamed or filtered-out benchmark must not drop its guard
// silently. Two
// numbers are compared. ns/op is a ratio on the same machine class —
// refresh the baseline (see its "regenerate" field) when hardware
// changes. allocs/op is machine-independent, which ns/op on a shared
// runner is not: a benchmark fails when it allocates more than the
// recorded count by over tolerance × count + 1 (the + 1 lets a
// zero- or one-allocation row absorb an amortized fraction rounding
// up). Lines without an allocs/op column (no -benchmem, no
// b.ReportAllocs) are checked on ns/op alone.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// baseline mirrors the relevant slice of BENCH_hotpath.json.
type baseline struct {
	Micro []row `json:"micro"`
}

type row struct {
	Benchmark string  `json:"benchmark"`
	NsPerOp   float64 `json:"ns_per_op"`
	// AllocsPerOp is nil for a row that records no count; such a row
	// is guarded on ns/op alone.
	AllocsPerOp *float64 `json:"allocs_per_op"`
}

// allocLimit is the most allocs/op a benchmark may report against ref,
// and whether ref records a count at all.
func allocLimit(ref row, tolerance float64) (float64, bool) {
	if ref.AllocsPerOp == nil {
		return 0, false
	}
	return *ref.AllocsPerOp*(1+tolerance) + 1, true
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run guards the benchmark output read from in, echoing it to out and
// reporting to errw, and returns the exit code: 0 when every tracked
// row ran within tolerance, 1 on a regression or a row that never ran,
// 2 on a bad flag, baseline or input.
func run(args []string, in io.Reader, out, errw io.Writer) int {
	fs := flag.NewFlagSet("benchguard", flag.ContinueOnError)
	fs.SetOutput(errw)
	path := fs.String("baseline", "BENCH_hotpath.json", "baseline JSON file")
	tolerance := fs.Float64("tolerance", 0.20, "allowed fractional ns/op and allocs/op regression")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	raw, err := os.ReadFile(*path)
	if err != nil {
		fmt.Fprintf(errw, "benchguard: reading baseline: %v\n", err)
		return 2
	}
	var base baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(errw, "benchguard: parsing baseline: %v\n", err)
		return 2
	}
	want := make(map[string]row, len(base.Micro))
	for _, m := range base.Micro {
		want[m.Benchmark] = m
	}
	ran := make(map[string]bool, len(base.Micro))

	checked, regressed := 0, 0
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(out, line) // pass the output through for the CI log
		name, ns, allocs, ok := parseBenchLine(line)
		if !ok {
			continue
		}
		ref, tracked := want[name]
		if !tracked {
			continue
		}
		ran[name] = true
		if ref.NsPerOp <= 0 {
			continue
		}
		checked++
		ratio := ns/ref.NsPerOp - 1
		slow := ratio > *tolerance
		if slow {
			fmt.Fprintf(errw, "benchguard: REGRESSION %s: %.4g ns/op vs baseline %.4g (%+.1f%%, tolerance %.0f%%)\n",
				name, ns, ref.NsPerOp, 100*ratio, 100**tolerance)
		}
		limit, counted := allocLimit(ref, *tolerance)
		fat := counted && allocs > limit
		if fat {
			fmt.Fprintf(errw, "benchguard: REGRESSION %s: %.0f allocs/op vs baseline %.0f (limit %.1f)\n",
				name, allocs, *ref.AllocsPerOp, limit)
		}
		if slow || fat {
			regressed++
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(errw, "benchguard: reading input: %v\n", err)
		return 2
	}
	missing := 0
	for _, m := range base.Micro {
		if !ran[m.Benchmark] {
			fmt.Fprintf(errw, "benchguard: MISSING %s: tracked in the baseline, but no result line\n", m.Benchmark)
			missing++
		}
	}
	if regressed > 0 || missing > 0 {
		fmt.Fprintf(errw, "benchguard: %d of %d tracked benchmarks regressed (ns/op or allocs/op) >%.0f%%, %d never ran\n",
			regressed, checked, 100**tolerance, missing)
		return 1
	}
	fmt.Fprintf(errw, "benchguard: %d tracked benchmarks within %.0f%% of baseline\n",
		checked, 100**tolerance)
	return 0
}

// parseBenchLine extracts (name, ns/op, allocs/op) from a testing
// benchmark result line like:
//
//	BenchmarkHotpathRoot-4   100   583548 ns/op   17544 B/op   3 allocs/op
//
// allocs is -1 when the line has no allocs/op column. The trailing -N
// GOMAXPROCS suffix is stripped so names match the baseline regardless
// of the runner's core count.
func parseBenchLine(line string) (name string, ns, allocs float64, ok bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return "", 0, 0, false
	}
	fields := strings.Fields(line)
	// value reads the number in front of a unit column.
	value := func(unit string) (float64, bool) {
		for i := 2; i < len(fields); i++ {
			if fields[i] == unit {
				v, err := strconv.ParseFloat(fields[i-1], 64)
				return v, err == nil
			}
		}
		return 0, false
	}
	if ns, ok = value("ns/op"); !ok {
		return "", 0, 0, false
	}
	if allocs, ok = value("allocs/op"); !ok {
		allocs = -1
	}
	name = fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	return name, ns, allocs, true
}
