// Command benchmark is the repository's end-to-end and per-layer
// benchmark. One invocation runs one workload for three rounds (each a
// fresh deployment: set-up, then a fixed count of timed calls), checks
// every output, prints every metric by name and ends with one JSON
// line. See README.md for the workloads, the metrics and why each was
// chosen; BENCHMARK.json at the repository root is the contract the
// names, units and bounds come from.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// metricDef names one reported metric. bound is the share by which an
// end-to-end metric may worsen before a change counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_p90_ms", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"live_heap_mb", "MB", "lower", 0.05},
}

const rounds = 3

// untracedRound is the round of a traced run that carries no observer:
// the base of trace.overhead_ratio and of the proc.* counters. It is
// not the first, because a process's first round also pays for growing
// the heap, and the ratio's other side is the last round.
const untracedRound = 1

// value is one reported number with the samples behind it.
type value struct {
	v       float64
	samples int
	per     []float64 // per-round readings, when the value is their median
}

type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Header    map[string]string  `json:"header"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds  = flag.Int("seconds", 10, "measured work per run: op counts are sized so the three measured phases total about this long on the reference machine")
		trace    = flag.Int("trace", 0, "1 = traced run: per-layer metrics, span self times and layer drills")
		traceOut = flag.String("trace-out", "", "file the traced run writes its spans to, as JSON lines (default <scratch>/trace-<workload>.jsonl)")
		out      = flag.String("out", "", "append this run's result, as one JSON line, to a file -compare can read")
		compare  = flag.Bool("compare", false, "compare two result files: benchmark -compare a.jsonl b.jsonl")
		list     = flag.Bool("list", false, "print workload and metric names, then exit")
	)
	flag.Parse()
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(errors.New("-compare needs two result files"))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	case *list:
		printNames()
		return
	}
	w, ok := findWorkload(*name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", ")))
	}
	if *seconds < 1 {
		fatal(errors.New("-seconds must be at least 1"))
	}
	root, err := repoRoot()
	if err != nil {
		fatal(err)
	}
	res, err := run(w, options{
		seed: *seed, scale: float64(*seconds) / 10, trace: *trace != 0,
		root: root, traceOut: *traceOut,
	})
	if err != nil {
		fatal(err)
	}
	if *out != "" {
		if err := appendResult(*out, res); err != nil {
			fatal(err)
		}
	}
	fmt.Println(res.line())
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func printNames() {
	for _, w := range workloads {
		fmt.Printf("workload %s: %s\n", w.name, w.why)
	}
	for _, m := range endToEnd {
		fmt.Printf("end_to_end %s [%s] %s is better, bound %.2f\n", m.Name, m.Unit, m.Better, m.Bound)
	}
	for _, m := range perLayer {
		fmt.Printf("per_layer %s [%s] %s is better\n", m.Name, m.Unit, m.Better)
	}
}

// repoRoot finds the checkout: the nearest directory at or above the
// working directory that holds BENCHMARK.json and the root module. The
// benchmark builds against that module and keeps every file it writes
// under <root>/.bench_build.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json at or above the working directory")
		}
		dir = parent
	}
}

type options struct {
	seed     int64
	scale    float64 // measured counts × scale; set-up counts × min(scale, 1)
	trace    bool
	root     string // checkout root; scratch files live under root/.bench_build
	traceOut string
}

func scaled(n int, f float64) int { return max(int(math.Round(float64(n)*f)), 1) }

// sized applies -seconds to a workload. Set-up never grows with it, and
// shrinks only for the smoke test's sub-second scales.
func sized(w workload, scale float64) workload {
	w.measured = scaled(w.measured, scale)
	if scale < 1 {
		// Audits need auditAge older slots to aim at.
		w.prefill = max(scaled(w.prefill, scale), 2*auditAge)
	}
	return w
}

func run(w workload, o options) (*result, error) {
	w = sized(w, o.scale)
	procs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(procs)
	scratchRoot := filepath.Join(o.root, ".bench_build")
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(scratchRoot, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	header := map[string]string{
		"workload": w.name, "seed": fmt.Sprint(o.seed), "nproc": fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(procs), "clients": fmt.Sprint(procs), "go": runtime.Version(),
		"commit": gitHead(o.root), "rounds": fmt.Sprint(rounds),
		"prefill": fmt.Sprint(w.prefill), "measured_calls": fmt.Sprint(w.measured),
	}
	printHeader(header)

	rs := make([]*round, 0, rounds)
	var recs []*recorder
	for i := 0; i < rounds; i++ {
		e := &env{seed: o.seed, clients: procs, scratch: scratch}
		if o.trace && i != untracedRound {
			e.rec = newRecorder(eventCapacity(w))
		}
		r, err := w.run(e, w)
		if err != nil {
			return nil, fmt.Errorf("%s round %d: %w", w.name, i, err)
		}
		rs = append(rs, r)
		recs = append(recs, e.rec)
	}

	res := &result{Workload: w.name, Seed: o.seed, Trace: o.trace, Header: header, Correct: true, Metrics: map[string]float64{}}
	for _, r := range rs {
		res.Attempted += r.attempted()
		res.Failed += r.failed
	}
	vals := endToEndValues(rs)
	defs := endToEnd
	if o.trace {
		layer, mismatches, err := perLayerValues(w, o, rs, recs, scratch)
		if err != nil {
			return nil, err
		}
		for _, m := range mismatches {
			fmt.Println("MISMATCH", m)
			res.Correct = false
		}
		// The traced run still prints the end-to-end numbers, for the
		// reader; only the untraced run reports them.
		printValues("end_to_end (this traced run; not reported)", endToEnd, vals)
		vals, defs = layer, perLayer
	}
	for _, m := range exactMismatches(rs) {
		fmt.Println("MISMATCH", m)
		res.Correct = false
	}
	section := "end_to_end"
	if o.trace {
		section = "per_layer"
	}
	printValues(section, defs, vals)
	for _, m := range defs {
		res.Metrics[m.Name] = vals[m.Name].v
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	fmt.Printf("ops attempted %d failed %d correct %v\n", res.Attempted, res.Failed, res.Correct)
	return res, nil
}

// eventCapacity bounds the callbacks one measured phase can fire.
func eventCapacity(w workload) int { return w.measured*w.events + 1024 }

func endToEndValues(rs []*round) map[string]value {
	per := map[string][]float64{}
	samples := 0
	for _, r := range rs {
		lat := latenciesMs(r.ops)
		samples += len(lat) * r.opsPerCall
		per["ops_per_s"] = append(per["ops_per_s"], r.opsPerS())
		per["op_p50_ms"] = append(per["op_p50_ms"], percentile(lat, 0.5))
		per["op_p90_ms"] = append(per["op_p90_ms"], percentile(lat, 0.9))
		per["setup_s"] = append(per["setup_s"], r.setupS)
		per["live_heap_mb"] = append(per["live_heap_mb"], r.heapMB)
	}
	vals := map[string]value{}
	for name, xs := range per {
		n := samples
		if name == "setup_s" || name == "live_heap_mb" {
			n = len(xs)
		}
		vals[name] = value{v: median(xs), samples: n, per: xs}
	}
	return vals
}

// latenciesMs returns the calls' latencies in ms, ascending.
func latenciesMs(ops []call) []float64 {
	lat := make([]float64, len(ops))
	for i, c := range ops {
		lat[i] = float64(c.end-c.start) / 1e6
	}
	sort.Float64s(lat)
	return lat
}

// exactMismatches lists the exact-count metrics that differ between
// rounds of this one seed.
func exactMismatches(rs []*round) []string {
	var out []string
	for name, want := range rs[0].exact {
		for i, r := range rs[1:] {
			if got := r.exact[name]; got != want {
				out = append(out, fmt.Sprintf("%s: round 0 = %v, round %d = %v", name, want, i+1, got))
			}
		}
	}
	sort.Strings(out)
	return out
}

func printHeader(h map[string]string) {
	keys := make([]string, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%s", k, h[k])
	}
	fmt.Println("benchmark" + b.String())
}

func printValues(section string, defs []metricDef, vals map[string]value) {
	fmt.Printf("-- %s\n", section)
	for _, m := range defs {
		v := vals[m.Name]
		fmt.Printf("%-34s %14.6g %-8s n=%d", m.Name, v.v, m.Unit, v.samples)
		if len(v.per) > 0 {
			fmt.Printf("  rounds=%.6g", v.per)
		}
		fmt.Println()
	}
}

// line is the contract's last line of output.
func (r *result) line() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	metrics := map[string]mv{}
	for _, m := range defs {
		metrics[m.Name] = mv{r.Metrics[m.Name], m.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	if err != nil {
		fatal(err)
	}
	return string(b)
}

func appendResult(path string, r *result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// gitHead names the commit measured; the driver's checkout is not a
// repository, and then the header says so.
func gitHead(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func dirSize(dir string) int64 {
	var total int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
