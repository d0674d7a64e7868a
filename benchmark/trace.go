package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	twoldag "github.com/twoldag/twoldag"
)

// Span names. Roots are the benchmark's own calls into the driver;
// children are derived from observer callbacks that fired inside them.
type spanName uint8

const (
	spanSubmit spanName = iota
	spanAudit
	spanBounce
	spanSilence
	spanRestart
	spanSimSlot
	spanCycle
	spanSeal
	spanCommit
	spanDeliver
	spanHop
	spanConsensus
)

var spanNames = [...]string{
	spanSubmit:    "driver.submit_batch",
	spanAudit:     "driver.audit",
	spanBounce:    "driver.bounce",
	spanSilence:   "driver.silence",
	spanRestart:   "driver.restart",
	spanSimSlot:   "sim.slot",
	spanCycle:     "driver.cycle",
	spanSeal:      "node.seal",
	spanCommit:    "ledger.commit",
	spanDeliver:   "node.deliver",
	spanHop:       "node.hop",
	spanConsensus: "core.consensus",
}

func (n spanName) String() string { return spanNames[n] }

// call is one timed call into the driver: a latency sample of the
// end-to-end run and a root span of the traced one. Times are ns since
// the measured phase began. key separates concurrent roots (validator
// ID + 1 for an audit; 0 where one caller drives every node).
type call struct {
	start, end int64
	key        uint32
	name       spanName
}

type evKind uint8

const (
	evSeal evKind = iota
	evCommit
	evDeliver
	evHop
	evConsensus
)

type event struct {
	t    int64
	key  uint32
	kind evKind
}

// recorder is the benchmark-owned Observer of the traced run. Every
// callback stamps one entry of a preallocated buffer; nothing is
// interpreted until the run has ended.
type recorder struct {
	twoldag.NopObserver
	epoch   time.Time
	on      atomic.Bool
	n       atomic.Int64
	events  []event
	dropped atomic.Int64

	// Exact counts taken at the same boundaries, while recording.
	walBlocks, walBytes atomic.Int64
}

func newRecorder(capacity int) *recorder {
	return &recorder{events: make([]event, capacity)}
}

// begin starts recording; times are relative to epoch.
func (r *recorder) begin(epoch time.Time) {
	r.epoch = epoch
	r.on.Store(true)
}

func (r *recorder) stop() { r.on.Store(false) }

func (r *recorder) add(kind evKind, key uint32) {
	if !r.on.Load() {
		return
	}
	t := int64(time.Since(r.epoch))
	i := r.n.Add(1) - 1
	if i >= int64(len(r.events)) {
		r.dropped.Add(1)
		return
	}
	r.events[i] = event{t: t, key: key, kind: kind}
}

func (r *recorder) recorded() []event {
	return r.events[:min(r.n.Load(), int64(len(r.events)))]
}

func (r *recorder) OnBlockSealed(twoldag.BlockSealed) { r.add(evSeal, 0) }

// A delivery is one announcement frame ingested by a neighbour: a
// singleton frame when the sender sealed one block this flush, a
// coalesced one otherwise.
func (r *recorder) OnDigestAnnounced(twoldag.DigestAnnounced) { r.add(evDeliver, 0) }
func (r *recorder) OnDigestBatchDelivered(twoldag.DigestBatchDelivered) {
	r.add(evDeliver, 0)
}
func (r *recorder) OnAuditHop(e twoldag.AuditHop) { r.add(evHop, uint32(e.Validator)+1) }
func (r *recorder) OnConsensusReached(e twoldag.ConsensusReached) {
	r.add(evConsensus, uint32(e.Validator)+1)
}

// OnWALCommit makes the recorder a ledger commit observer: the live
// driver hands it every WAL commit window of every durable node.
func (r *recorder) OnWALCommit(blocks int, bytes int64) {
	r.add(evCommit, 0)
	if r.on.Load() {
		r.walBlocks.Add(int64(blocks))
		r.walBytes.Add(bytes)
	}
}

// span is one traced interval. parent indexes the spans slice (-1 for
// a root); op is the index of the root every span of one call shares.
type span struct {
	name       spanName
	start, end int64
	parent, op int32
	self       int64
}

// buildSpans turns roots plus recorded callbacks into a span forest.
// explicit holds child spans the benchmark timed itself (parent = index
// into roots). An event belongs to the latest-started root of matching
// key whose interval contains it; events outside every root are
// returned as orphans.
//
// A callback marks an instant, so a derived span runs from the previous
// boundary on the same call to the callback:
//
//   - node.seal: previous seal (or the root's start) → BlockSealed;
//   - node.deliver: last seal of the call → a neighbour's ingest of
//     one announcement frame (receivers work in parallel, so these
//     overlap);
//   - node.hop: AuditHop → the same validator's next hop or consensus;
//   - ledger.commit, core.consensus: zero-length markers — the public
//     observer does not expose where an fsync or a verdict started.
func buildSpans(roots, explicit []call, explicitParent []int32, events []event) (spans []span, orphans int) {
	spans = make([]span, 0, len(roots)+len(explicit)+len(events))
	byKey := map[uint32][]int32{}
	for i, c := range roots {
		spans = append(spans, span{name: c.name, start: c.start, end: c.end, parent: -1, op: int32(i)})
		byKey[c.key] = append(byKey[c.key], int32(i))
	}
	// maxEnd[key][k] is the latest end among the key's first k+1 roots:
	// the backward search below stops where no earlier root can still
	// be open.
	maxEnd := map[uint32][]int64{}
	for key, idx := range byKey {
		sort.Slice(idx, func(a, b int) bool { return roots[idx[a]].start < roots[idx[b]].start })
		ends := make([]int64, len(idx))
		for k, r := range idx {
			ends[k] = roots[r].end
			if k > 0 {
				ends[k] = max(ends[k], ends[k-1])
			}
		}
		maxEnd[key] = ends
	}
	for i, c := range explicit {
		p := explicitParent[i]
		spans = append(spans, span{name: c.name, start: c.start, end: c.end, parent: p, op: p})
	}
	rootOf := func(e event) int32 {
		key := e.key
		if _, ok := byKey[key]; !ok {
			key = 0 // one caller drives every node (submit, sim slot)
		}
		idx := byKey[key]
		j := sort.Search(len(idx), func(j int) bool { return roots[idx[j]].start > e.t })
		// Clients may run roots of one key side by side: look back past
		// later-started ones that already ended.
		for k := j - 1; k >= 0 && maxEnd[key][k] >= e.t; k-- {
			if roots[idx[k]].end >= e.t {
				return idx[k]
			}
		}
		return -1
	}
	perRoot := make(map[int32][]event)
	for _, e := range events {
		r := rootOf(e)
		if r < 0 {
			orphans++
			continue
		}
		perRoot[r] = append(perRoot[r], e)
	}
	for r, evs := range perRoot {
		sort.Slice(evs, func(a, b int) bool { return evs[a].t < evs[b].t })
		root := roots[r]
		lastSeal := root.start
		open := map[uint32]int{} // validator → its open hop span
		for _, e := range evs {
			switch e.kind {
			case evSeal:
				spans = append(spans, span{name: spanSeal, start: lastSeal, end: e.t, parent: r, op: r})
				lastSeal = e.t
			case evDeliver:
				spans = append(spans, span{name: spanDeliver, start: lastSeal, end: e.t, parent: r, op: r})
			case evCommit:
				spans = append(spans, span{name: spanCommit, start: e.t, end: e.t, parent: r, op: r})
			case evHop, evConsensus:
				if i, ok := open[e.key]; ok {
					spans[i].end = e.t
					delete(open, e.key)
				}
				if e.kind == evHop {
					open[e.key] = len(spans)
					spans = append(spans, span{name: spanHop, start: e.t, end: root.end, parent: r, op: r})
				} else {
					spans = append(spans, span{name: spanConsensus, start: e.t, end: e.t, parent: r, op: r})
				}
			}
		}
	}
	return spans, orphans
}

// selfTimes attributes every instant of a root's interval to exactly
// one span of its tree — the deepest one covering it, the latest
// started among equals — so the self times of a tree sum to its root's
// duration even where sibling spans overlap. It reports spans that
// poke out of their parent.
func selfTimes(spans []span) (outside int) {
	depth := make([]int, len(spans))
	tree := map[int32][]int32{}
	for i := range spans {
		spans[i].self = 0
		if p := spans[i].parent; p >= 0 {
			depth[i] = depth[p] + 1
			if spans[i].start < spans[p].start || spans[i].end > spans[p].end {
				outside++
			}
		}
		tree[spans[i].op] = append(tree[spans[i].op], int32(i))
	}
	type point struct {
		t     int64
		span  int32
		start bool
	}
	better := func(a, b int32) bool { // a owns the instant rather than b
		if depth[a] != depth[b] {
			return depth[a] > depth[b]
		}
		if spans[a].start != spans[b].start {
			return spans[a].start > spans[b].start
		}
		return a > b
	}
	var pts []point
	var active []int32
	for _, members := range tree {
		pts = pts[:0]
		for _, i := range members {
			if spans[i].end > spans[i].start {
				pts = append(pts, point{spans[i].start, i, true}, point{spans[i].end, i, false})
			}
		}
		sort.Slice(pts, func(a, b int) bool { return pts[a].t < pts[b].t })
		active = active[:0]
		for k := 0; k < len(pts); {
			t := pts[k].t
			for ; k < len(pts) && pts[k].t == t; k++ {
				if pts[k].start {
					active = append(active, pts[k].span)
					continue
				}
				for j, a := range active {
					if a == pts[k].span {
						active = append(active[:j], active[j+1:]...)
						break
					}
				}
			}
			if len(active) == 0 || k == len(pts) {
				continue
			}
			owner := active[0]
			for _, a := range active[1:] {
				if better(a, owner) {
					owner = a
				}
			}
			spans[owner].self += pts[k].t - t
		}
	}
	return outside
}

// layerTotals sums self time, duration and count per span name.
type layerTotal struct {
	name       spanName
	count      int
	self, wall int64
}

func layerTotals(spans []span) []layerTotal {
	by := map[spanName]*layerTotal{}
	for _, s := range spans {
		lt := by[s.name]
		if lt == nil {
			lt = &layerTotal{name: s.name}
			by[s.name] = lt
		}
		lt.count++
		lt.self += s.self
		lt.wall += s.end - s.start
	}
	out := make([]layerTotal, 0, len(by))
	for _, lt := range by {
		out = append(out, *lt)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].self > out[b].self })
	return out
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var buf []byte
	for i, s := range spans {
		buf = append(buf[:0], `{"id":`...)
		buf = strconv.AppendInt(buf, int64(i), 10)
		buf = append(buf, `,"name":"`...)
		buf = append(buf, s.name.String()...)
		buf = append(buf, `","start_ns":`...)
		buf = strconv.AppendInt(buf, s.start, 10)
		buf = append(buf, `,"end_ns":`...)
		buf = strconv.AppendInt(buf, s.end, 10)
		buf = append(buf, `,"parent":`...)
		buf = strconv.AppendInt(buf, int64(s.parent), 10)
		buf = append(buf, `,"op":`...)
		buf = strconv.AppendInt(buf, int64(s.op), 10)
		buf = append(buf, `,"self_ns":`...)
		buf = strconv.AppendInt(buf, s.self, 10)
		buf = append(buf, "}\n"...)
		if _, err := w.Write(buf); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("flushing %s: %w", path, err)
	}
	return f.Close()
}
