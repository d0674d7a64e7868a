package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// smokeScale shrinks every workload to about 1/50 of a contract run.
const smokeScale = 0.02

// smokeRun runs one workload at smoke scale under a throwaway root.
func smokeRun(t *testing.T, w workload, trace bool) *result {
	t.Helper()
	if w.name == "sim_slots" {
		w.nodes = 32 // audit duty starts after |V| slots: a small V keeps set-up short
	}
	res, err := run(w, options{seed: 7, scale: smokeScale, trace: trace, root: t.TempDir()})
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d", w.name, res.Correct, res.Attempted, res.Failed)
	}
	return res
}

// TestSmokeEveryWorkload runs each workload end to end and checks the
// contract's last line: exactly the end-to-end names, none of them 0.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		res := smokeRun(t, w, false)
		var line struct {
			Correct   bool `json:"correct"`
			Attempted int  `json:"attempted"`
			Failed    int  `json:"failed"`
			Metrics   map[string]struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(res.line()), &line); err != nil {
			t.Fatalf("%s: last line is not JSON: %v", w.name, err)
		}
		if len(line.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics on the last line, want %d", w.name, len(line.Metrics), len(endToEnd))
		}
		for _, m := range endToEnd {
			got, ok := line.Metrics[m.Name]
			if !ok || got.Unit != m.Unit || !(got.Value > 0) || math.IsInf(got.Value, 0) {
				t.Errorf("%s: %s = %+v (present %v), want a positive value in %s", w.name, m.Name, got, ok, m.Unit)
			}
		}
	}
}

// TestSmokeTraced runs the traced mode — observer, spans, self-time
// invariants (run fails when they break), drills — and checks every
// per-layer name is reported as a finite number.
func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("the untraced smoke test covers every workload in -short mode")
	}
	for _, w := range workloads {
		res := smokeRun(t, w, true)
		for _, m := range perLayer {
			v, ok := res.Metrics[m.Name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: per-layer %s = %v (present %v)", w.name, m.Name, v, ok)
			}
		}
	}
}

// TestBenchmarkJSONMatchesTables pins BENCHMARK.json to the tables the
// binary prints from, so a name cannot exist on one side only.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %v", n, name)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the binary", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		checkName(w.name)
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the binary %q: %q", i, doc.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, at most 200 allowed", w.name, len(w.why))
		}
	}
	for _, side := range []struct {
		kind      string
		doc, have []metricDef
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(side.doc) != len(side.have) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the binary", side.kind, len(side.doc), len(side.have))
		}
		for i, m := range side.have {
			checkName(m.Name)
			if side.doc[i] != m {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the binary %+v", side.kind, i, side.doc[i], m)
			}
		}
	}
	var setup *metricDef
	for i := range endToEnd {
		if endToEnd[i].Name == "setup_s" {
			setup = &endToEnd[i]
		}
		if b := endToEnd[i].Bound; b <= 0 || b > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", endToEnd[i].Name, b)
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better; have %+v", setup)
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct{ p, want float64 }{{0, 1}, {0.5, 5.5}, {0.9, 9.1}, {1, 10}} {
		if got := percentile(xs, tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of three = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) gives, the rule the contract's spread
// check uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 20, 30, 40, 50}, 15, 45},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{2, 4}, 1.5, 4.5},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestSegmentCV(t *testing.T) {
	steady := make([]int64, 100)
	for i := range steady {
		steady[i] = int64(i+1) * 10
	}
	if cv := segmentCV(steady, 10); cv > 1e-9 {
		t.Errorf("steady completions: cv = %v, want 0", cv)
	}
	stalled := append([]int64(nil), steady...)
	for i := 50; i < len(stalled); i++ {
		stalled[i] += 1000 // one stall in the middle slows exactly one segment
	}
	if cv := segmentCV(stalled, 10); cv < 0.2 {
		t.Errorf("one stalled segment: cv = %v, want it to show", cv)
	}
	if cv := segmentCV(steady[:5], 10); cv != 0 {
		t.Errorf("too few calls for 10 segments: cv = %v, want 0", cv)
	}
}

func TestBuildSpansAndSelfTimes(t *testing.T) {
	roots := []call{
		{start: 0, end: 100, name: spanSubmit},
		{start: 200, end: 300, key: 5, name: spanAudit},
		{start: 250, end: 320, key: 5, name: spanAudit}, // same validator, overlapping
	}
	events := []event{
		{t: 30, kind: evSeal}, {t: 50, kind: evSeal}, {t: 40, kind: evCommit},
		{t: 70, kind: evDeliver}, {t: 90, kind: evDeliver},
		{t: 150, kind: evSeal},              // between roots: an orphan
		{t: 210, key: 5, kind: evHop},       // only the first audit is open
		{t: 240, key: 5, kind: evConsensus}, // closes that hop
		{t: 310, key: 5, kind: evConsensus}, // first audit ended at 300: belongs to the second
		{t: 260, key: 9, kind: evHop},       // unknown validator key falls back to key 0: orphan here
	}
	spans, orphans := buildSpans(roots, nil, nil, events)
	if orphans != 2 {
		t.Errorf("orphans = %d, want 2", orphans)
	}
	if outside := selfTimes(spans); outside != 0 {
		t.Errorf("%d spans outside their parent", outside)
	}
	self := map[spanName]int64{}
	count := map[spanName]int{}
	var rootWall, selfSum int64
	for _, s := range spans {
		self[s.name] += s.self
		count[s.name]++
		selfSum += s.self
		if s.parent < 0 {
			rootWall += s.end - s.start
		}
	}
	if selfSum != rootWall {
		t.Errorf("self times sum to %d, roots last %d", selfSum, rootWall)
	}
	// Submit root [0,100]: seals [0,30] and [30,50]; deliveries [50,70] and
	// [50,90] overlap and count once; [90,100] is the root's own.
	want := map[spanName]int64{spanSeal: 50, spanDeliver: 40, spanSubmit: 10, spanHop: 30, spanAudit: 70 + 70, spanCommit: 0, spanConsensus: 0}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self time of %v = %d, want %d", name, self[name], w)
		}
	}
	if count[spanConsensus] != 2 || count[spanCommit] != 1 || count[spanHop] != 1 {
		t.Errorf("span counts %v", count)
	}
}

func TestSelfTimesNestedAndOutside(t *testing.T) {
	spans := []span{
		{name: spanBounce, start: 0, end: 100, parent: -1, op: 0},
		{name: spanSilence, start: 10, end: 30, parent: 0, op: 0},
		{name: spanRestart, start: 30, end: 90, parent: 0, op: 0},
		{name: spanSeal, start: 40, end: 60, parent: 2, op: 0}, // grandchild
		{name: spanHop, start: 95, end: 120, parent: 0, op: 0}, // pokes out of the root
	}
	if outside := selfTimes(spans); outside != 1 {
		t.Errorf("outside = %d, want 1", outside)
	}
	for i, want := range []int64{10 + 5, 20, 40, 20} {
		if spans[i].self != want {
			t.Errorf("span %d (%v): self = %d, want %d", i, spans[i].name, spans[i].self, want)
		}
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, opsPerS []float64) string {
		path := filepath.Join(dir, name)
		for i, v := range opsPerS {
			r := &result{Workload: "ingest_mem", Seed: int64(i), Correct: true, Attempted: 1, Metrics: map[string]float64{
				"ops_per_s": v, "op_p50_ms": 4, "op_p90_ms": 5, "setup_s": 1.5, "live_heap_mb": 90,
			}}
			if err := appendResult(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("a.jsonl", []float64{1000, 1010, 990, 1005, 995})
	same := write("b.jsonl", []float64{1020, 1000, 985, 1010, 1001})
	slow := write("c.jsonl", []float64{650, 660, 640, 655, 645})
	few := write("d.jsonl", []float64{1000, 1000})
	if ok, err := compareFiles(io.Discard, base, same); err != nil || !ok {
		t.Errorf("two sets 1 %% apart: ok=%v err=%v, want agreement", ok, err)
	}
	if ok, err := compareFiles(io.Discard, base, slow); err != nil || ok {
		t.Errorf("a set 35 %% slower: ok=%v err=%v, want disagreement", ok, err)
	}
	if ok, err := compareFiles(io.Discard, slow, base); err != nil || ok {
		t.Errorf("a set 35 %% faster: ok=%v err=%v, want disagreement both ways", ok, err)
	}
	if _, err := compareFiles(io.Discard, base, few); err == nil {
		t.Error("a set of two runs was accepted; at least five are needed")
	}
}
