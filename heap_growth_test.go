package twoldag

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
)

// durableGrowthCeiling bounds the live heap a durable, capped cluster
// adds per sealed block between slots 600 and 1200 of
// TestDurableHeapGrowthPerBlock. It read 736 B at the ROADMAP item 14
// measurement, 795 B just before S_i let go of the headers its segment
// holds and 452 B after, about 220 B of which was each device holding
// the blocks sealed since its last compaction whole (176 at slot 1200
// against 88 at slot 600). Since S_i lets go of a block once its commit
// window has fsynced it reads 248 B, and the ceiling sits 15 % above
// that. Where a device stands between compactions now moves it by a
// few bytes: S_i keeps 72 B and a log slot per segmented block and 16 B
// more per block only the log holds. The rest is the responder index's
// slots and the digests of the shared verification cache, which nothing
// bounds yet.
const durableGrowthCeiling = 285

// TestDurableHeapGrowthPerBlock is ROADMAP item 14's heap table as a
// test: 8 devices, γ 2, difficulty 1, trust cap 256, durable, 1 KiB
// bodies, each slot one 8-block SubmitBatch and 8 AuditMany audits of
// random blocks at least auditLag slots old by random other devices.
// The live heap (two GCs, then HeapAlloc) is read at slots 600 and
// 1200, and its growth per block sealed in between is held to
// durableGrowthCeiling. Skipped under -race, whose allocator inflates
// HeapAlloc; it runs in about two seconds.
func TestDurableHeapGrowthPerBlock(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocator inflates HeapAlloc")
	}
	const nodes, slots, mid, auditLag = 8, 1200, 600, 8
	rt := newRuntime(t, WithNodes(nodes), WithGamma(2), WithSeed(7), WithDifficulty(1),
		WithTrustCap(256), WithDataDir(t.TempDir()))
	ids := rt.Nodes()
	rng := rand.New(rand.NewSource(7))
	batch := make([]Submission, nodes)
	for i, id := range ids {
		batch[i] = Submission{Node: id, Data: make([]byte, 1024)}
	}
	ctx := context.Background()
	var refs []Ref
	var atMid uint64
	var audits, consensus int
	for s := 1; s <= slots; s++ {
		for i := range batch {
			rng.Read(batch[i].Data)
		}
		rt.AdvanceSlot()
		got, err := rt.SubmitBatch(ctx, batch)
		if err != nil {
			t.Fatalf("slot %d: %v", s, err)
		}
		refs = append(refs, got...)
		if old := len(refs) - auditLag*nodes; old > 0 {
			reqs := make([]AuditRequest, nodes)
			for i := range reqs {
				ref := refs[rng.Intn(old)]
				v := ids[rng.Intn(nodes)]
				for v == ref.Node {
					v = ids[rng.Intn(nodes)]
				}
				reqs[i] = AuditRequest{Validator: v, Ref: ref}
			}
			for _, out := range rt.AuditMany(ctx, reqs) {
				if out.Err != nil && out.Result == nil {
					t.Fatalf("slot %d: audit of %v by %v: %v", s, out.Request.Ref, out.Request.Validator, out.Err)
				}
				if out.Result.Consensus {
					consensus++
				}
				audits++
			}
		}
		if s == mid {
			atMid = liveHeap()
		}
	}
	grown := float64(int64(liveHeap())-int64(atMid)) / float64((slots-mid)*nodes)
	t.Logf("live heap grows %.0f B per sealed block from slot %d to %d (ceiling %d); %d of %d audits reached consensus",
		grown, mid, slots, durableGrowthCeiling, consensus, audits)
	if 2*consensus < audits {
		t.Fatalf("only %d of %d audits reached consensus: the audit path was hardly run", consensus, audits)
	}
	if grown > durableGrowthCeiling {
		t.Fatalf("a durable, capped device grows %.0f B of heap per sealed block, ceiling %d", grown, durableGrowthCeiling)
	}
}

// liveHeap is the heap the program holds: two GCs, then HeapAlloc.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
