package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
)

// perLayer lists every per-layer metric, layer = module name. README.md
// says which end-to-end metric each should move, and on which workload.
// A metric a workload does not exercise reads 0 there.
var perLayer = []metricDef{
	{Name: "block.seal_us", Unit: "us", Better: "lower"},
	{Name: "block.pow_tries_per_seal", Unit: "count", Better: "lower"},
	{Name: "block.verify_us", Unit: "us", Better: "lower"},
	{Name: "block.body_root_us", Unit: "us", Better: "lower"},
	{Name: "block.encode_ns", Unit: "ns", Better: "lower"},
	{Name: "block.decode_ns", Unit: "ns", Better: "lower"},

	{Name: "ledger.log_block_us", Unit: "us", Better: "lower"},
	{Name: "ledger.fsyncs_per_block", Unit: "count", Better: "lower"},
	{Name: "ledger.wal_bytes_per_block", Unit: "B", Better: "lower"},
	{Name: "ledger.blocks_per_window", Unit: "count", Better: "higher"},
	{Name: "ledger.compact_ms", Unit: "ms", Better: "lower"},
	{Name: "ledger.disk_bytes_per_block", Unit: "B", Better: "lower"},
	{Name: "ledger.recover_us_per_block", Unit: "us", Better: "lower"},
	{Name: "ledger.trust_childof_ns", Unit: "ns", Better: "lower"},

	{Name: "wire.encode_ns.digest_announce", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_ns.digest_announce", Unit: "ns", Better: "lower"},
	{Name: "wire.encode_ns.rpy_child", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_ns.rpy_child", Unit: "ns", Better: "lower"},
	{Name: "wire.encode_ns.block_resp", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_ns.block_resp", Unit: "ns", Better: "lower"},
	{Name: "wire.bytes.digest_announce", Unit: "B", Better: "lower"},
	{Name: "wire.bytes.rpy_child", Unit: "B", Better: "lower"},
	{Name: "wire.bytes.block_resp", Unit: "B", Better: "lower"},

	{Name: "transport.mem_rtt_us", Unit: "us", Better: "lower"},
	{Name: "transport.tcp_rtt_us", Unit: "us", Better: "lower"},
	{Name: "transport.tcp_connect_ms", Unit: "ms", Better: "lower"},

	{Name: "core.msgs_per_audit", Unit: "count", Better: "lower"},
	{Name: "core.hops_per_audit", Unit: "count", Better: "lower"},
	{Name: "core.trust_hits_per_audit", Unit: "count", Better: "higher"},
	{Name: "core.rollbacks_per_audit", Unit: "count", Better: "lower"},
	{Name: "core.timeouts_per_audit", Unit: "count", Better: "lower"},
	{Name: "core.union_fallback_ratio", Unit: "ratio", Better: "lower"},
	{Name: "core.useful_probe_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.on_digest_batch_us", Unit: "us", Better: "lower"},

	{Name: "node.seal_us_per_block", Unit: "us", Better: "lower"},
	{Name: "node.announce_ack_ms", Unit: "ms", Better: "lower"},
	{Name: "node.frames_per_slot", Unit: "count", Better: "lower"},
	{Name: "node.hop_us", Unit: "us", Better: "lower"},

	{Name: "driver.new_s", Unit: "s", Better: "lower"},
	{Name: "driver.prefill_s", Unit: "s", Better: "lower"},
	{Name: "driver.close_ms", Unit: "ms", Better: "lower"},
	{Name: "driver.submit_batch_ms", Unit: "ms", Better: "lower"},
	{Name: "driver.audit_us", Unit: "us", Better: "lower"},
	{Name: "driver.silence_ms", Unit: "ms", Better: "lower"},
	{Name: "driver.restart_ms", Unit: "ms", Better: "lower"},
	{Name: "driver.self_ms_per_call", Unit: "ms", Better: "lower"},
	{Name: "driver.op_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "driver.op_max_ms", Unit: "ms", Better: "lower"},
	{Name: "driver.segment_cv", Unit: "ratio", Better: "lower"},

	{Name: "sim.slot_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.audits_per_slot", Unit: "count", Better: "higher"},
	{Name: "sim.audit_failures", Unit: "count", Better: "lower"},
	{Name: "sim.avg_storage_bytes_per_node", Unit: "B", Better: "lower"},
	{Name: "sim.avg_comm_bytes_per_node", Unit: "B", Better: "lower"},

	{Name: "proc.cpu_s_per_kop", Unit: "s", Better: "lower"},
	{Name: "proc.cpu_utilisation", Unit: "ratio", Better: "higher"},
	{Name: "proc.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "proc.alloc_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "proc.gc_pause_ms_per_s", Unit: "ms/s", Better: "lower"},
	{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "higher"},
}

// perLayerValues assembles the traced run's metrics: readings of the
// rounds themselves, counts and timings from the last round's spans,
// and the layer drills. mismatches lists exact counts that differ
// between the two traced rounds.
func perLayerValues(w workload, o options, rs []*round, recs []*recorder, scratch string) (map[string]value, []string, error) {
	vals := map[string]value{}
	set := func(name string, v float64, n int) { vals[name] = value{v: v, samples: n} }

	// Rounds: medians over all three where tracing cannot matter much,
	// and the throughput ratio traced ÷ untraced.
	set("driver.new_s", median(mapRounds(rs, func(r *round) float64 { return r.newS })), len(rs))
	set("driver.prefill_s", median(mapRounds(rs, func(r *round) float64 { return r.prefillS })), len(rs))
	set("driver.close_ms", median(mapRounds(rs, func(r *round) float64 { return r.closeMs })), len(rs))
	untraced := rs[untracedRound]
	last := rs[len(rs)-1]
	set("trace.overhead_ratio", last.opsPerS()/untraced.opsPerS(), 1)

	// Process counters and call latencies come from the untraced round:
	// the observer's own allocations and time stay out of them.
	ops := float64(untraced.attempted())
	lat := latenciesMs(untraced.ops)
	set("proc.cpu_s_per_kop", untraced.cpuS/ops*1000, 1)
	set("proc.cpu_utilisation", untraced.cpuS/(untraced.wallS*float64(runtime.GOMAXPROCS(0))), 1)
	set("proc.allocs_per_op", float64(untraced.mallocs)/ops, 1)
	set("proc.alloc_bytes_per_op", float64(untraced.allocBytes)/ops, 1)
	set("proc.gc_pause_ms_per_s", float64(untraced.gcPauseNs)/1e6/untraced.wallS, 1)
	set("proc.peak_rss_mb", peakRSSMB(), 1)
	set("driver.op_p99_ms", percentile(lat, 0.99), len(lat))
	set("driver.op_max_ms", lat[len(lat)-1], len(lat))
	ends := make([]int64, len(untraced.ops))
	for i, c := range untraced.ops {
		ends[i] = c.end
	}
	set("driver.segment_cv", segmentCV(ends, 10), 10)
	switch untraced.ops[0].name {
	case spanSubmit:
		set("driver.submit_batch_ms", percentile(lat, 0.5), len(lat))
	case spanAudit:
		set("driver.audit_us", percentile(lat, 0.5)*1e3, len(lat))
	case spanSimSlot:
		set("sim.slot_ms", percentile(lat, 0.5), len(lat))
	}
	for _, m := range []map[string]float64{untraced.layer, untraced.exact} {
		for name, v := range m {
			set(name, v, 1)
		}
	}

	// Spans of the traced rounds.
	var mismatches []string
	var counts []map[string]float64
	for i, r := range rs {
		rec := recs[i]
		if rec == nil {
			continue
		}
		if n := rec.dropped.Load(); n > 0 {
			return nil, nil, fmt.Errorf("trace buffer too small: %d callbacks dropped", n)
		}
		roots := r.roots
		if roots == nil {
			roots = r.ops
		}
		spans, orphans := buildSpans(roots, r.explicit, r.explicitParent, rec.recorded())
		if r != last { // the first traced round only has to repeat the counts
			counts = append(counts, spanMetrics(spans, rec).exact)
			continue
		}
		outside := selfTimes(spans)
		sm := spanMetrics(spans, rec)
		counts = append(counts, sm.exact)
		for name, v := range sm.timed {
			vals[name] = v
		}
		for name, v := range sm.exact {
			set(name, v, 1)
		}
		if err := printSelfTimes(spans, orphans, outside); err != nil {
			return nil, nil, err
		}
		path := o.traceOut
		if path == "" {
			path = filepath.Join(filepath.Dir(scratch), "trace-"+w.name+".jsonl")
		}
		if err := writeSpans(path, spans); err != nil {
			return nil, nil, err
		}
		fmt.Printf("spans written to %s\n", path)
	}
	for name, want := range counts[0] {
		for i, c := range counts[1:] {
			if c[name] != want {
				mismatches = append(mismatches, fmt.Sprintf("%s: first traced round = %v, traced round %d = %v", name, want, i+2, c[name]))
			}
		}
	}
	sort.Strings(mismatches)

	drills, err := runDrills(o.seed, filepath.Join(scratch, "drills"))
	if err != nil {
		return nil, nil, fmt.Errorf("layer drills: %w", err)
	}
	for name, v := range drills {
		if _, have := vals[name]; !have { // a workload's own exact count wins over the drill's
			set(name, v, 1)
		}
	}
	return vals, mismatches, nil
}

func mapRounds(rs []*round, f func(*round) float64) []float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = f(r)
	}
	return xs
}

type spanReadings struct {
	timed map[string]value
	exact map[string]float64
}

// spanMetrics derives the node.*, ledger.* and driver.self readings of
// one traced round.
func spanMetrics(spans []span, rec *recorder) spanReadings {
	out := spanReadings{timed: map[string]value{}, exact: map[string]float64{}}
	type perRoot struct {
		seals, delivers  int
		lastSeal, rootAt int64
	}
	roots := map[int32]*perRoot{}
	var hopNs, selfNs, sealNs, ackNs []float64
	seals, commits, delivers, sealRoots := 0, 0, 0, 0
	for i, s := range spans {
		if s.parent < 0 {
			selfNs = append(selfNs, float64(s.self))
			roots[int32(i)] = &perRoot{rootAt: s.start}
			continue
		}
		pr := roots[s.op]
		switch s.name {
		case spanSeal:
			seals++
			pr.seals++
			pr.lastSeal = max(pr.lastSeal, s.end)
		case spanDeliver:
			delivers++
		case spanCommit:
			commits++
		case spanHop:
			hopNs = append(hopNs, float64(s.end-s.start))
		}
	}
	for i, pr := range roots {
		if pr.seals == 0 {
			continue
		}
		sealRoots++
		sealNs = append(sealNs, float64(pr.lastSeal-pr.rootAt)/float64(pr.seals))
		ackNs = append(ackNs, float64(spans[i].end-pr.lastSeal))
	}
	out.timed["driver.self_ms_per_call"] = value{v: median(selfNs) / 1e6, samples: len(selfNs)}
	if sealRoots > 0 {
		out.timed["node.seal_us_per_block"] = value{v: median(sealNs) / 1e3, samples: len(sealNs)}
		out.timed["node.announce_ack_ms"] = value{v: median(ackNs) / 1e6, samples: len(ackNs)}
		out.exact["node.frames_per_slot"] = float64(delivers) / float64(sealRoots)
	}
	if len(hopNs) > 0 {
		out.timed["node.hop_us"] = value{v: median(hopNs) / 1e3, samples: len(hopNs)}
	}
	if blocks := float64(rec.walBlocks.Load()); blocks > 0 && seals > 0 {
		out.exact["ledger.fsyncs_per_block"] = float64(commits) / float64(seals)
		out.exact["ledger.wal_bytes_per_block"] = float64(rec.walBytes.Load()) / blocks
		out.exact["ledger.blocks_per_window"] = blocks / float64(commits)
	}
	return out
}

// printSelfTimes prints the per-layer self-time breakdown and checks
// its two invariants: every child lies inside its root, and self times
// sum to the roots' durations.
func printSelfTimes(spans []span, orphans, outside int) error {
	var rootWall, selfSum int64
	for _, s := range spans {
		if s.parent < 0 {
			rootWall += s.end - s.start
		}
		selfSum += s.self
	}
	fmt.Printf("-- span self times (last round; %d spans, %d callbacks outside any root)\n", len(spans), orphans)
	for _, lt := range layerTotals(spans) {
		fmt.Printf("%-22s n=%-8d self %10.3f ms  %5.1f %%   wall %10.3f ms\n",
			lt.name, lt.count, float64(lt.self)/1e6, 100*float64(lt.self)/float64(max(rootWall, 1)), float64(lt.wall)/1e6)
	}
	fmt.Printf("root durations %.3f ms, self times %.3f ms, children outside their root %d\n",
		float64(rootWall)/1e6, float64(selfSum)/1e6, outside)
	if outside > 0 || selfSum != rootWall {
		return fmt.Errorf("trace invariants broken: %d children outside their root, self sum %d ns vs root sum %d ns", outside, selfSum, rootWall)
	}
	return nil
}
