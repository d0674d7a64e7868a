package node

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/core"
	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/identity"
	"github.com/twoldag/twoldag/internal/ledger"
	"github.com/twoldag/twoldag/internal/topology/topologytest"
)

// sealFig4 seals the Fig. 4 blocks with benchmark-shaped (1 KiB)
// bodies: genesis everywhere, then in each of slots slots B_k, D_k
// (child of B_k), E_k (child of D_k).
func sealFig4(tb testing.TB, c *cluster, slots int) {
	tb.Helper()
	body := bytes.Repeat([]byte{0xA5}, 1024)
	order := []identity.NodeID{0, 1, 2, 3, 4}
	for range slots + 1 {
		c.slot++
		for _, id := range order {
			_, d, err := sealAndPublish(c.nodes[id], body)
			if err != nil {
				tb.Fatalf("seal(%v): %v", id, err)
			}
			c.nodes[id].AnnounceBatch(context.Background(), []digest.Digest{d})
			c.waitForDigest(id, d)
		}
		order = []identity.NodeID{1, 3, 4}
	}
}

// durableFig4 is the Fig. 4 deployment of sealFig4 with B's owner,
// node 1, on a data dir of its own (returned), compacted once the
// blocks are sealed: B's blocks then live only in node 1's segment, and
// every GET_BLOCK of B_k reads its record back from there.
func durableFig4(tb testing.TB, slots int) (*cluster, string) {
	tb.Helper()
	dir := tb.TempDir()
	var fb *ledger.FileBackend
	c := newCluster(tb, topologytest.PaperFig4(), 2, func(cfg *Config) {
		if cfg.Key.ID != 1 {
			return
		}
		var err error
		if fb, err = ledger.OpenFileBackend(dir); err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { _ = fb.Close() }) // after the nodes close
		st, err := fb.Recover(ledger.RecoverOptions{Owner: 1, Params: cfg.Params, Ring: cfg.Ring})
		if err != nil {
			tb.Fatal(err)
		}
		cfg.State, cfg.Backend = st, fb
	})
	sealFig4(tb, c, slots)
	owner := c.nodes[1].Engine()
	if err := fb.Compact(func() (*ledger.NodeState, error) { return owner.State(), nil }); err != nil {
		tb.Fatal(err)
	}
	if b := owner.Store().Latest(); int(b.Header.Seq) != slots || b.Body != nil {
		tb.Fatal("compaction left B's blocks on node 1's heap")
	}
	return c, dir
}

// warmSlots is how many slots a warm-audit deployment seals, and
// warmRefs how many of B's blocks from them its audits cycle through,
// at seeded random sequence numbers — about what each device holds of
// audit_repeat_mem's working set (256 (validator, ref) pairs over 32
// devices, anywhere in their logs).
const warmSlots, warmRefs = 64, 8

// warmAuditCluster builds the Fig. 4 deployment over the in-memory
// fabric — B's owner on a data dir when durable is set (durableFig4) —
// and runs one audit of each of warmRefs of B's blocks from validator
// A, so their whole paths sit in H_A. Every further audit of one is
// the warm case: one GET_BLOCK round trip, the body-root check and TPS
// hits — 2 messages, 0 hops.
func warmAuditCluster(tb testing.TB, durable bool) (*Node, []block.Ref) {
	tb.Helper()
	var c *cluster
	if durable {
		c, _ = durableFig4(tb, warmSlots)
	} else {
		c = newCluster(tb, topologytest.PaperFig4(), 2)
		sealFig4(tb, c, warmSlots)
	}
	validator := c.nodes[0]
	var refs []block.Ref
	for _, k := range rand.New(rand.NewSource(1)).Perm(warmSlots)[:warmRefs] {
		ref := block.Ref{Node: 1, Seq: uint32(k + 1)}
		res, err := validator.Audit(context.Background(), ref)
		if err != nil || !res.Consensus {
			tb.Fatalf("cold audit of %v: consensus=%v err=%v", ref, res != nil && res.Consensus, err)
		}
		refs = append(refs, ref)
	}
	return validator, refs
}

// warmAudit runs one warm audit and checks it stayed on the cache-hit
// path (a fetch would hide the very allocations the guard counts).
func warmAudit(tb testing.TB, v *Node, ref block.Ref) *core.Result {
	res, err := v.Audit(context.Background(), ref)
	if err != nil || !res.Consensus {
		tb.Fatalf("warm audit: %v", err)
	}
	if res.HeadersFetched != 0 || res.MessagesSent != 1 || res.MessagesReceived != 1 {
		tb.Fatalf("warm audit left the cache-hit path: %+v", res)
	}
	return res
}

// warmAuditAllocCeiling bounds the heap allocations of one warm audit,
// requester and responder side together: 13 at the last count, plus 2.
// What is left is the reply's decode (message, payload copy, header, Δ,
// signature, block), the request frame, the Result with its path and
// vouchers, and the event; the body root and the header hash build
// their preimages on the stack.
const warmAuditAllocCeiling = 15

// warmAuditAllocs counts the allocations of one warm audit.
func warmAuditAllocs(t *testing.T, durable bool) float64 {
	v, refs := warmAuditCluster(t, durable)
	i := 0
	return testing.AllocsPerRun(2000, func() {
		warmAudit(t, v, refs[i%len(refs)])
		i++
	})
}

// TestWarmAuditAllocs is the allocation guard of the PoP read path: the
// whole round trip of a warm audit — build and encode GET_BLOCK, the
// responder's lookup and BLOCK_RESP, decode, body root, TPS — stays
// under warmAuditAllocCeiling allocations.
func TestWarmAuditAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	got := warmAuditAllocs(t, false)
	t.Logf("warm audit: %.1f allocs", got)
	if got > warmAuditAllocCeiling {
		t.Fatalf("warm audit makes %.1f allocations, ceiling %d", got, warmAuditAllocCeiling)
	}
}

// TestWarmAuditAllocsDurable holds the same audits against a responder
// that reads each B_k back from its segment to at most two allocations
// more than the in-memory one, measured beside it. The reply carries
// the record's payload as read, so the record buffer is the one
// allocation more.
func TestWarmAuditAllocsDurable(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	mem, durable := warmAuditAllocs(t, false), warmAuditAllocs(t, true)
	t.Logf("warm audit: %.1f allocs in memory, %.1f with the body read from the segment", mem, durable)
	if durable > mem+2 {
		t.Fatalf("a warm audit of a segmented block makes %.1f allocations, ceiling %.1f (in memory + 2)", durable, mem+2)
	}
}

// benchWarmAudit times warm audits; one op is one Audit call on a
// validator whose H_i already holds the target's path. Messages, hops
// and trust hits per audit ride along, so the durable row can be held
// to the in-memory one's counts.
func benchWarmAudit(b *testing.B, durable bool) {
	v, refs := warmAuditCluster(b, durable)
	b.ReportAllocs()
	b.ResetTimer()
	var msgs, hops, hits int
	for i := 0; i < b.N; i++ {
		res := warmAudit(b, v, refs[i%len(refs)])
		msgs += res.MessagesSent + res.MessagesReceived
		hops += res.HeadersFetched
		hits += res.TrustHits
	}
	n := float64(b.N)
	b.ReportMetric(float64(msgs)/n, "msgs/op")
	b.ReportMetric(float64(hops)/n, "hops/op")
	b.ReportMetric(float64(hits)/n, "trusthits/op")
}

// BenchmarkHotpathAuditWarm times warm audits, cycling through
// warmRefs of B's blocks, against an in-memory responder.
func BenchmarkHotpathAuditWarm(b *testing.B) { benchWarmAudit(b, false) }

// BenchmarkHotpathAuditWarmDurable times the same audits against a
// responder whose copies of B's blocks are on disk only: each GET_BLOCK
// reads the record from the segment (page cache warm), checks it and
// replies with its payload as it stands.
func BenchmarkHotpathAuditWarmDurable(b *testing.B) { benchWarmAudit(b, true) }
