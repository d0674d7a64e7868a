package node

import (
	"bytes"
	"context"
	"testing"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/identity"
	"github.com/twoldag/twoldag/internal/topology"
)

// warmAuditCluster builds the Fig. 4 deployment over the in-memory
// fabric with benchmark-shaped blocks (1 KiB bodies) and runs one audit
// of B1 from validator A, so B1's whole path sits in H_A. Every further
// audit of B1 is the warm case: one GET_BLOCK round trip, the body-root
// check and TPS hits — 2 messages, 0 hops.
func warmAuditCluster(tb testing.TB) (*Node, block.Ref) {
	tb.Helper()
	c := newCluster(tb, topology.PaperFig4(), 2)
	body := bytes.Repeat([]byte{0xA5}, 1024)
	ctx := context.Background()
	// Genesis everywhere, then B1, D1 (child of B1), E1 (child of D1).
	for _, order := range [][]identity.NodeID{{0, 1, 2, 3, 4}, {1, 3, 4}} {
		c.slot++
		for _, id := range order {
			b, err := c.nodes[id].Generate(ctx, body)
			if err != nil {
				tb.Fatalf("Generate(%v): %v", id, err)
			}
			c.waitForDigest(id, b.Header.Hash())
		}
	}
	validator, ref := c.nodes[0], block.Ref{Node: 1, Seq: 1}
	res, err := validator.Audit(ctx, ref)
	if err != nil || !res.Consensus {
		tb.Fatalf("cold audit: consensus=%v err=%v", res != nil && res.Consensus, err)
	}
	return validator, ref
}

// warmAudit runs one warm audit and checks it stayed on the cache-hit
// path (a fetch would hide the very allocations the guard counts).
func warmAudit(tb testing.TB, v *Node, ref block.Ref) {
	res, err := v.Audit(context.Background(), ref)
	if err != nil || !res.Consensus {
		tb.Fatalf("warm audit: %v", err)
	}
	if res.HeadersFetched != 0 || res.MessagesSent != 1 || res.MessagesReceived != 1 {
		tb.Fatalf("warm audit left the cache-hit path: %+v", res)
	}
}

// warmAuditAllocCeiling bounds the heap allocations of one warm audit,
// requester and responder side together. What is left is the reply's
// decode (message, payload copy, header, Δ, signature, block), the
// request frame, the Result with its path and vouchers, and the event.
const warmAuditAllocCeiling = 20

// TestWarmAuditAllocs is the allocation guard of the PoP read path: the
// whole round trip of a warm audit — build and encode GET_BLOCK, the
// responder's lookup and BLOCK_RESP, decode, body root, TPS — stays
// under warmAuditAllocCeiling allocations.
func TestWarmAuditAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	v, ref := warmAuditCluster(t)
	got := testing.AllocsPerRun(2000, func() { warmAudit(t, v, ref) })
	t.Logf("warm audit: %.1f allocs", got)
	if got > warmAuditAllocCeiling {
		t.Fatalf("warm audit makes %.1f allocations, ceiling %d", got, warmAuditAllocCeiling)
	}
}

// BenchmarkHotpathAuditWarm times the same warm audit; one op is one
// Audit call on a validator whose H_i already holds the target's path.
func BenchmarkHotpathAuditWarm(b *testing.B) {
	v, ref := warmAuditCluster(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		warmAudit(b, v, ref)
	}
}
