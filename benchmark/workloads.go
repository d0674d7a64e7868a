package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	twoldag "github.com/twoldag/twoldag"
)

const (
	gamma     = 4
	bodyBytes = 1024
	// auditAge is how many slots old an audited block is: old enough
	// that γ+1 distinct descendants exist on every path.
	auditAge = 8
	// auditPairs is the working set audit_repeat_mem cycles through.
	auditPairs = 256
)

// workload sizes one deployment shape. prefill and measured are slots
// (or calls); measured is the count at -seconds 10 and scales linearly
// with -seconds, so ledger growth and every count repeat run to run.
type workload struct {
	name, why string
	nodes     int
	durable   bool // WithDataDir: file-backed ledgers under the run's scratch dir
	prefill   int
	measured  int
	// events bounds the observer callbacks one timed call can fire:
	// per node a seal, a WAL commit, a delivery per neighbour and an
	// audit's hops. It sizes the traced run's buffer.
	events int
	run    func(e *env, w workload) (*round, error)
}

var workloads = []workload{
	{
		name: "ingest_mem", nodes: 32, prefill: 400, measured: 800, events: 32 * 32, run: runIngest,
		why: "seal (Merkle+PoW+ed25519) and announce/ack do the work and the WAL none: the write path's baseline",
	},
	{
		name: "ingest_durable", nodes: 32, durable: true, prefill: 200, measured: 330, events: 32 * 32, run: runIngest,
		why: "the same calls with WithDataDir: WAL append, fsync and two compactions per node dominate, so a ledger change shows here only",
	},
	{
		name: "audit_repeat_mem", nodes: 32, prefill: 340, measured: 400000, events: 4, run: runAuditRepeat,
		why: "clients re-audit 256 pairs whose paths sit in H_i: trust-store lookups and one block fetch, the read path's cache-hit case",
	},
	{
		name: "twin_mixed_tcp", nodes: 32, prefill: 300, measured: 300, events: 32 * 64, run: runTwinMixed,
		why: "each slot seals 32 blocks then audits 32 fresh ones over loopback TCP: audits stay cold, so hops, wire codec and framing dominate",
	},
	{
		name: "sim_slots", nodes: 128, prefill: 160, measured: 300, events: 128 * 64, run: runSimSlots,
		why: "the deterministic simulator researchers use for figures: sim/par/core with no node goroutines or transport",
	},
	{
		name: "restart_durable", nodes: 32, durable: true, prefill: 300, measured: 224, events: 32 * 32, run: runRestart,
		why: "silence+restart of durable nodes: snapshot read, WAL replay and re-verification, the ledger read back instead of appended",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// env is what one round is given: the seed-derived inputs, the client
// count and, on the traced round, the recorder to attach.
type env struct {
	seed    int64
	clients int
	scratch string // parent of every data dir this process creates
	rec     *recorder
}

// round is what one set-up + measured phase produced.
type round struct {
	newS, prefillS, setupS float64
	wallS                  float64
	ops                    []call // the timed calls of the measured phase
	opsPerCall             int
	failed                 int // ops, not calls
	heapMB                 float64
	closeMs                float64
	cpuS                   float64
	mallocs, allocBytes    uint64
	gcPauseNs              uint64

	// exact are counts that must repeat across rounds of one seed;
	// layer are this round's other per-layer readings.
	exact, layer map[string]float64

	// Traced round only: root spans other than ops, and child spans the
	// workload timed itself.
	roots, explicit []call
	explicitParent  []int32
}

func (r *round) attempted() int { return len(r.ops) * r.opsPerCall }

func (r *round) opsPerS() float64 { return float64(r.attempted()) / r.wallS }

// deployment is a running Runtime plus the bookkeeping every workload
// shares: the single submitter, the refs it got back, and the phase
// clock.
type deployment struct {
	rt     twoldag.Runtime
	ids    []twoldag.NodeID
	rng    *rand.Rand
	bodies [][]byte
	batch  []twoldag.Submission
	next   []uint32 // next expected per-owner sequence number
	seen   bool
	slots  [][]twoldag.Ref // refs returned per submitted slot
	r      *round
	base   uint64 // live heap before New
	epoch  time.Time
	ru0    syscall.Rusage
	ms0    runtime.MemStats
}

// rngFor derives an input stream from the run seed and a label, so each
// workload and purpose draws from its own sequence.
func rngFor(seed int64, label string) *rand.Rand {
	h := uint64(seed)*0x9E3779B97F4A7C15 + 0x632BE59BD9B4E019
	for _, c := range []byte(label) {
		h = (h ^ uint64(c)) * 0x100000001B3
	}
	return rand.New(rand.NewSource(int64(h)))
}

func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// deploy builds the runtime (timed as driver.new_s) over the common
// topology and prefills it (driver.prefill_s).
func deploy(e *env, w workload, prefill bool, opts ...twoldag.Option) (*deployment, error) {
	topo, err := twoldag.SmallWorld(twoldag.SmallWorldConfig{Nodes: w.nodes, K: 4, Beta: 0.1, Seed: e.seed})
	if err != nil {
		return nil, err
	}
	opts = append(opts, twoldag.WithTopology(topo), twoldag.WithGamma(gamma), twoldag.WithSeed(e.seed))
	if e.rec != nil {
		opts = append(opts, twoldag.WithObserver(e.rec))
	}
	d := &deployment{
		rng: rngFor(e.seed, w.name),
		r:   &round{opsPerCall: 1, exact: map[string]float64{}, layer: map[string]float64{}},
	}
	d.base = liveHeap()
	t0 := time.Now()
	d.rt, err = twoldag.New(opts...)
	if err != nil {
		return nil, err
	}
	d.r.newS = time.Since(t0).Seconds()
	d.ids = d.rt.Nodes()
	d.bodies = make([][]byte, len(d.ids))
	d.batch = make([]twoldag.Submission, len(d.ids))
	d.next = make([]uint32, len(d.ids))
	for i, id := range d.ids {
		d.bodies[i] = make([]byte, bodyBytes)
		d.batch[i] = twoldag.Submission{Node: id, Data: d.bodies[i]}
	}
	if prefill {
		t1 := time.Now()
		for i := 0; i < w.prefill; i++ {
			if bad, err := d.submitSlot(); err != nil || bad > 0 {
				d.close()
				return nil, fmt.Errorf("prefill slot %d: %d bad refs: %v", i, bad, err)
			}
		}
		d.r.prefillS = time.Since(t1).Seconds()
	}
	return d, nil
}

// submitSlot advances the clock and submits one seeded 1 KiB block per
// node. It returns how many of the slot's blocks failed: all of them
// when the call errors, otherwise every ref that is missing, names the
// wrong owner or skips a sequence number.
func (d *deployment) submitSlot() (bad int, err error) {
	for _, b := range d.bodies {
		d.rng.Read(b)
	}
	d.rt.AdvanceSlot()
	refs, err := d.rt.SubmitBatch(context.Background(), d.batch)
	if err != nil {
		return len(d.batch), err
	}
	if len(refs) != len(d.batch) {
		return len(d.batch) - len(refs), nil
	}
	for i, ref := range refs {
		if !d.seen {
			d.next[i] = ref.Seq
		}
		if ref.Node != d.ids[i] || ref.Seq != d.next[i] {
			bad++
		}
		d.next[i] = ref.Seq + 1
	}
	d.seen = true
	d.slots = append(d.slots, append([]twoldag.Ref(nil), refs...))
	return bad, nil
}

// begin ends set-up and starts the measured phase.
func (d *deployment) begin(e *env, setupStart time.Time) {
	runtime.GC() // start every measured phase from a collected heap
	runtime.ReadMemStats(&d.ms0)
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &d.ru0)
	d.r.setupS = time.Since(setupStart).Seconds()
	d.epoch = time.Now()
	if e.rec != nil {
		e.rec.begin(d.epoch)
	}
}

func (d *deployment) since() int64 { return int64(time.Since(d.epoch)) }

// end closes the measured phase: wall, CPU, allocation and GC deltas,
// then the live heap with the deployment still open.
func (d *deployment) end(e *env) {
	d.r.wallS = time.Since(d.epoch).Seconds()
	if e.rec != nil {
		e.rec.stop()
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	d.r.cpuS = tv(ru.Utime) + tv(ru.Stime) - tv(d.ru0.Utime) - tv(d.ru0.Stime)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	d.r.mallocs = ms.Mallocs - d.ms0.Mallocs
	d.r.allocBytes = ms.TotalAlloc - d.ms0.TotalAlloc
	d.r.gcPauseNs = ms.PauseTotalNs - d.ms0.PauseTotalNs
	if heap := liveHeap(); heap > d.base {
		d.r.heapMB = float64(heap-d.base) / (1 << 20)
	}
}

func (d *deployment) close() error {
	t0 := time.Now()
	err := d.rt.Close()
	d.r.closeMs = float64(time.Since(t0)) / 1e6
	return err
}

// auditOK applies the output check of every audit: consensus, and at
// least γ+1 distinct vouchers.
func auditOK(res *twoldag.AuditResult, err error) bool {
	if err != nil || res == nil || !res.Consensus {
		return false
	}
	distinct := 0
	for i, v := range res.Vouchers {
		dup := false
		for _, u := range res.Vouchers[:i] {
			dup = dup || u == v
		}
		if !dup {
			distinct++
		}
	}
	return distinct >= gamma+1
}

// auditTally accumulates the cost counters of audit results.
type auditTally struct {
	audits, failed                                    int
	msgs, probes, fetched, trust, rollbacks, timeouts int
	fallbacks                                         int
}

// add counts one audit and reports whether it passed the output check.
func (t *auditTally) add(res *twoldag.AuditResult, err error) bool {
	ok := auditOK(res, err)
	t.audits++
	if !ok {
		t.failed++
	}
	if res == nil {
		return ok
	}
	t.msgs += res.MessagesSent + res.MessagesReceived
	t.probes += max(res.MessagesSent-1, 0) // every send but the GET_BLOCK is a REQ_CHILD
	t.fetched += res.HeadersFetched
	t.trust += res.TrustHits
	t.rollbacks += res.Rollbacks
	t.timeouts += res.Timeouts
	if res.UnionFallback {
		t.fallbacks++
	}
	return ok
}

func (t *auditTally) merge(o *auditTally) {
	t.audits += o.audits
	t.failed += o.failed
	t.msgs += o.msgs
	t.probes += o.probes
	t.fetched += o.fetched
	t.trust += o.trust
	t.rollbacks += o.rollbacks
	t.timeouts += o.timeouts
	t.fallbacks += o.fallbacks
}

// report files the tally under the core.* names. Message and probe
// counts of a seed repeat exactly when the audits do not race each
// other's trust stores; exact says whether this workload promises that.
func (t *auditTally) report(r *round, exact bool) {
	n := float64(max(t.audits, 1))
	into := r.layer
	if exact {
		into = r.exact
	}
	into["core.msgs_per_audit"] = float64(t.msgs) / n
	into["core.hops_per_audit"] = float64(t.probes) / n
	into["core.trust_hits_per_audit"] = float64(t.trust) / n
	r.layer["core.rollbacks_per_audit"] = float64(t.rollbacks) / n
	r.layer["core.timeouts_per_audit"] = float64(t.timeouts) / n
	r.layer["core.union_fallback_ratio"] = float64(t.fallbacks) / n
	if t.probes > 0 {
		r.layer["core.useful_probe_ratio"] = float64(t.fetched) / float64(t.probes)
	}
}

func runIngest(e *env, w workload) (*round, error) {
	var opts []twoldag.Option
	dir := ""
	if w.durable {
		var err error
		if dir, err = os.MkdirTemp(e.scratch, "data-"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		opts = append(opts, twoldag.WithDataDir(dir))
	}
	setup := time.Now()
	d, err := deploy(e, w, true, opts...)
	if err != nil {
		return nil, err
	}
	r := d.r
	r.opsPerCall = len(d.ids)
	r.ops = make([]call, 0, w.measured)
	d.begin(e, setup)
	for i := 0; i < w.measured; i++ {
		c := call{start: d.since(), name: spanSubmit}
		bad, err := d.submitSlot()
		c.end = d.since()
		r.ops = append(r.ops, c)
		r.failed += bad
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: slot %d: %v\n", w.name, i, err)
		}
	}
	d.end(e)
	r.exact["block.pow_tries_per_seal"] = d.powTries(w.measured)
	if dir != "" {
		blocks := float64((w.prefill + w.measured) * len(d.ids))
		r.layer["ledger.disk_bytes_per_block"] = float64(dirSize(dir)) / blocks
	}
	return r, d.close()
}

// powTries reads the mined nonces of the last n slots back through the
// public Block accessor: tries = nonce + 1.
func (d *deployment) powTries(n int) float64 {
	var tries, blocks float64
	for _, refs := range d.slots[len(d.slots)-n:] {
		for _, ref := range refs {
			if b, err := d.rt.Block(ref); err == nil {
				tries += float64(b.Header.Nonce) + 1
				blocks++
			}
		}
	}
	return tries / max(blocks, 1)
}

func runAuditRepeat(e *env, w workload) (*round, error) {
	setup := time.Now()
	d, err := deploy(e, w, true)
	if err != nil {
		return nil, err
	}
	r := d.r
	ctx := context.Background()
	pairs := make([]twoldag.AuditRequest, auditPairs)
	old := d.slots[:len(d.slots)-auditAge]
	var warm auditTally
	for i := range pairs {
		refs := old[d.rng.Intn(len(old))]
		pairs[i] = twoldag.AuditRequest{Validator: d.ids[d.rng.Intn(len(d.ids))], Ref: refs[d.rng.Intn(len(refs))]}
		warm.add(d.rt.Audit(ctx, pairs[i].Validator, pairs[i].Ref))
	}
	if warm.failed > 0 {
		d.close()
		return nil, fmt.Errorf("%d of %d warm-up audits failed", warm.failed, warm.audits)
	}
	r.ops = make([]call, w.measured)
	tallies := make([]auditTally, e.clients)
	// Clients claim runs of ops so neighbours in r.ops are written by
	// one goroutine (no cache line shared between writers).
	const chunk = 64
	var next atomic.Int64
	var wg sync.WaitGroup
	d.begin(e, setup)
	for c := 0; c < e.clients; c++ {
		wg.Add(1)
		go func(t *auditTally) {
			defer wg.Done()
			for {
				lo := int(next.Add(chunk)) - chunk
				if lo >= len(r.ops) {
					return
				}
				for i := lo; i < min(lo+chunk, len(r.ops)); i++ {
					p := pairs[i%len(pairs)]
					op := &r.ops[i]
					*op = call{start: d.since(), key: uint32(p.Validator) + 1, name: spanAudit}
					res, err := d.rt.Audit(ctx, p.Validator, p.Ref)
					op.end = d.since()
					t.add(res, err)
				}
			}
		}(&tallies[c])
	}
	wg.Wait()
	d.end(e)
	var total auditTally
	for i := range tallies {
		total.merge(&tallies[i])
	}
	r.failed = total.failed
	total.report(r, true)
	return r, d.close()
}

func runTwinMixed(e *env, w workload) (*round, error) {
	setup := time.Now()
	d, err := deploy(e, w, true, twoldag.WithTransport(twoldag.TCP))
	if err != nil {
		return nil, err
	}
	r := d.r
	ctx := context.Background()
	n := len(d.ids)
	r.ops = make([]call, 0, w.measured)
	r.roots = make([]call, 0, w.measured*(n+1))
	audits := make([]call, n)
	results := make([]auditTally, e.clients)
	var submitNs, auditNs []float64
	d.begin(e, setup)
	for i := 0; i < w.measured; i++ {
		cycle := call{start: d.since(), name: spanCycle}
		bad, err := d.submitSlot()
		sub := call{start: cycle.start, end: d.since(), name: spanSubmit}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: cycle %d: %v\n", w.name, i, err)
		}
		// Every validator audits one seeded-random block of slot t-8:
		// target and descendants are all new, so nothing is in H_i yet.
		targets := d.slots[len(d.slots)-1-auditAge]
		for v := range audits {
			audits[v] = call{key: uint32(d.ids[v]) + 1, name: spanAudit}
		}
		picks := d.rng.Perm(n)
		var next, badAudits atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < e.clients; c++ {
			wg.Add(1)
			go func(t *auditTally) {
				defer wg.Done()
				for {
					v := int(next.Add(1)) - 1
					if v >= n {
						return
					}
					audits[v].start = d.since()
					res, err := d.rt.Audit(ctx, d.ids[v], targets[picks[v]])
					audits[v].end = d.since()
					if !t.add(res, err) {
						badAudits.Add(1)
					}
				}
			}(&results[c])
		}
		wg.Wait()
		cycle.end = d.since()
		if bad > 0 || badAudits.Load() > 0 {
			r.failed++
		}
		r.ops = append(r.ops, cycle)
		r.roots = append(r.roots, sub)
		r.roots = append(r.roots, audits...)
		submitNs = append(submitNs, float64(sub.end-sub.start))
		for _, a := range audits {
			auditNs = append(auditNs, float64(a.end-a.start))
		}
	}
	d.end(e)
	var total auditTally
	for i := range results {
		total.merge(&results[i])
	}
	total.report(r, false)
	r.layer["driver.submit_batch_ms"] = median(submitNs) / 1e6
	r.layer["driver.audit_us"] = median(auditNs) / 1e3
	r.exact["block.pow_tries_per_seal"] = d.powTries(w.measured)
	return r, d.close()
}

func runSimSlots(e *env, w workload) (*round, error) {
	setup := time.Now()
	d, err := deploy(e, w, false, twoldag.WithSimulator())
	if err != nil {
		return nil, err
	}
	r := d.r
	sim, ok := d.rt.(*twoldag.SimDriver)
	if !ok {
		d.close()
		return nil, errors.New("WithSimulator did not build a *SimDriver")
	}
	// The simulator starts audit duty only after |V| slots; a smoke-scale
	// set-up shorter than that would measure slots with no audits.
	prefill := max(w.prefill, w.nodes+auditAge)
	t1 := time.Now()
	if err := sim.RunSlots(prefill); err != nil {
		d.close()
		return nil, err
	}
	r.prefillS = time.Since(t1).Seconds()
	r.ops = make([]call, 0, w.measured)
	d.begin(e, setup)
	for i := 0; i < w.measured; i++ {
		c := call{start: d.since(), name: spanSimSlot}
		err := sim.RunSlots(1)
		c.end = d.since()
		r.ops = append(r.ops, c)
		if err != nil {
			r.failed++
			fmt.Fprintf(os.Stderr, "%s: slot %d: %v\n", w.name, i, err)
		}
	}
	d.end(e)
	rep := sim.Report()
	// The report cannot say which slot an audit failed in: one failure
	// anywhere fails the run's audit duty as a whole.
	if rep.Failures > 0 && r.failed == 0 {
		r.failed = min(rep.Failures, len(r.ops))
	}
	slots := float64(prefill + w.measured)
	r.exact["sim.audits_per_slot"] = float64(rep.Audits) / slots
	r.exact["sim.audit_failures"] = float64(rep.Failures)
	r.exact["sim.avg_storage_bytes_per_node"] = float64(rep.AvgStorageBits[len(rep.AvgStorageBits)-1]) / 8
	r.exact["sim.avg_comm_bytes_per_node"] = float64(rep.AvgCommBits[len(rep.AvgCommBits)-1]) / 8
	return r, d.close()
}

func runRestart(e *env, w workload) (*round, error) {
	dir, err := os.MkdirTemp(e.scratch, "data-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	setup := time.Now()
	d, err := deploy(e, w, true, twoldag.WithDataDir(dir))
	if err != nil {
		return nil, err
	}
	r := d.r
	cl, ok := d.rt.(*twoldag.Cluster)
	if !ok {
		d.close()
		return nil, errors.New("the live driver is not a *Cluster")
	}
	r.ops = make([]call, 0, w.measured)
	var silenceNs, restartNs []float64
	d.begin(e, setup)
	for i := 0; i < w.measured; i++ {
		id := d.ids[i%len(d.ids)]
		c := call{start: d.since(), name: spanBounce}
		before, err := cl.StateDigest(id)
		var after twoldag.Digest
		s0 := d.since()
		if err == nil {
			err = cl.Silence(id)
		}
		s1 := d.since()
		if err == nil {
			err = cl.Restart(id)
		}
		s2 := d.since()
		if err == nil {
			after, err = cl.StateDigest(id)
		}
		c.end = d.since()
		r.ops = append(r.ops, c)
		if err != nil || before != after {
			r.failed++
			fmt.Fprintf(os.Stderr, "%s: bounce %d of node %v: digest match %v: %v\n", w.name, i, id, before == after, err)
		}
		p := int32(len(r.ops) - 1)
		r.explicit = append(r.explicit, call{start: s0, end: s1, name: spanSilence}, call{start: s1, end: s2, name: spanRestart})
		r.explicitParent = append(r.explicitParent, p, p)
		silenceNs = append(silenceNs, float64(s1-s0))
		restartNs = append(restartNs, float64(s2-s1))
	}
	d.end(e)
	r.layer["driver.silence_ms"] = median(silenceNs) / 1e6
	r.layer["driver.restart_ms"] = median(restartNs) / 1e6
	blocks := float64(w.prefill * len(d.ids))
	r.layer["ledger.disk_bytes_per_block"] = float64(dirSize(dir)) / blocks
	return r, d.close()
}
