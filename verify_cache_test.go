package twoldag

import (
	"context"
	"runtime"
	"slices"
	"testing"
	"weak"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/ledger"
)

// TestClusterDevicesShareOneVerifyCache checks that a Cluster verifies
// each header once for all its devices: every device — one added by
// Join and one brought back by Restart included — holds the same
// header-verification cache, and after one round of cold audits, one
// per validator, the cache holds exactly the distinct headers on their
// paths and targets, fewer than the audits verified between them.
func TestClusterDevicesShareOneVerifyCache(t *testing.T) {
	for _, tc := range []struct {
		name string
		kind TransportKind
	}{
		{"mem", InMemory},
		{"tcp", TCP},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := newRuntime(t, append(baseOptions(10, 2),
				WithTransport(tc.kind), WithDataDir(t.TempDir()))...)
			c := rt.(*Cluster)
			joiner, err := rt.Join()
			if err != nil {
				t.Fatalf("Join: %v", err)
			}
			refs := fillBatch(t, rt, 3)
			ids := rt.Nodes()
			restarted := ids[1]
			if err := rt.Silence(restarted); err != nil {
				t.Fatal(err)
			}
			if err := c.Restart(restarted); err != nil {
				t.Fatalf("Restart: %v", err)
			}

			cache := c.devs[ids[0]].Node().Engine().VerifyCache()
			for _, id := range ids {
				if got := c.devs[id].Node().Engine().VerifyCache(); got != cache {
					t.Fatalf("device %v (joiner %v, restarted %v) holds its own verification cache", id, joiner, restarted)
				}
			}
			if n := cache.Len(); n != 0 {
				t.Fatalf("cache holds %d headers before any audit", n)
			}

			// Cold audits, run side by side so the devices use the cache
			// at once: every validator's H_i is empty, so each path step
			// past the target is a reply the validator verified.
			reqs := coldAudits(ids, refs)
			distinct := make(map[digest.Digest]bool)
			verifications := 0
			for _, out := range rt.AuditMany(context.Background(), reqs) {
				res, req := out.Result, out.Request
				if out.Err != nil || !res.Consensus {
					t.Fatalf("audit of %v by %v: %v", req.Ref, req.Validator, out.Err)
				}
				if res.TrustHits != 0 || res.Rollbacks != 0 || res.UnionFallback {
					t.Fatalf("audit of %v by %v is not a cold, rollback-free audit: %+v", req.Ref, req.Validator, res)
				}
				for _, s := range res.Path {
					distinct[s.HeaderHash] = true
				}
				verifications += 1 + res.HeadersFetched
			}
			if got := cache.Len(); got != len(distinct) {
				t.Fatalf("cache holds %d headers, the audits' paths and targets %d", got, len(distinct))
			}
			if len(distinct) >= verifications {
				t.Fatalf("%d distinct headers over %d per-audit verifications: the audits shared nothing", len(distinct), verifications)
			}
			t.Logf("%d audits verified %d headers, %d distinct", len(reqs), verifications, len(distinct))
		})
	}
}

// TestVerifyCacheRetainsNoStore: every engine on a verification cache
// is registered there as its node's signer, and the cache keeps none of
// them, nor the S_i they read, alive. After a Cluster (on either
// fabric) or a simulator has sealed, audited cold and closed, a
// device's S_i is collected, on a Cluster while its cache is still held
// — as the cleanups of the headers it interned hold it until they run.
func TestVerifyCacheRetainsNoStore(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  Option
	}{
		{"mem", WithTransport(InMemory)},
		{"tcp", WithTransport(TCP)},
		{"sim", WithSimulator()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store, cache := closedRuntime(t, append(baseOptions(10, 2), tc.opt))
			runtime.GC()
			runtime.GC()
			if store.Value() != nil {
				t.Fatal("a device's S_i outlived its runtime's Close")
			}
			runtime.KeepAlive(cache)
		})
	}
}

// closedRuntime builds a runtime from opts, seals three slots, runs one
// round of cold audits and closes it. It returns a weak pointer to the
// first device's S_i and, for a Cluster, the devices' shared
// verification cache (nil for the simulator).
func closedRuntime(t *testing.T, opts []Option) (weak.Pointer[ledger.Store], *block.VerifyCache) {
	t.Helper()
	rt, err := New(opts...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	refs := fillBatch(t, rt, 3)
	ids := rt.Nodes()
	for _, out := range rt.AuditMany(context.Background(), coldAudits(ids, refs)) {
		if out.Err != nil || !out.Result.Consensus {
			t.Fatalf("audit of %v by %v: %v", out.Request.Ref, out.Request.Validator, out.Err)
		}
	}
	var cache *block.VerifyCache
	var store *ledger.Store
	switch d := rt.(type) {
	case *Cluster:
		eng := d.devs[ids[0]].Node().Engine()
		cache, store = eng.VerifyCache(), eng.Store()
	case *SimDriver:
		store = d.s.Stores()[ids[0]]
	}
	if store == nil {
		t.Fatalf("no S_i for %v", ids[0])
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	return weak.Make(store), cache
}

// coldAudits gives every device one audit of another device's block:
// the first three devices' first blocks (refs from fillBatch) are the
// targets.
func coldAudits(ids []NodeID, refs []Ref) []AuditRequest {
	var reqs []AuditRequest
	for i, v := range ids {
		target := refs[i%3]
		if target.Node == v {
			target = refs[(i+1)%3]
		}
		reqs = append(reqs, AuditRequest{Validator: v, Ref: target})
	}
	return reqs
}

// TestClusterHoldsEachTrustedHeaderOnce checks that a Cluster's
// devices share the header objects of their H_i, not just the verdicts
// on them: after one round of cold audits run side by side, a header
// in several devices' H_i — a device added by Join included — is one
// *block.Header on all of them, and no H_i holds the header embedded
// in a block a validator fetched, which would keep that block's body
// alive.
func TestClusterHoldsEachTrustedHeaderOnce(t *testing.T) {
	for _, tc := range []struct {
		name string
		kind TransportKind
	}{
		{"mem", InMemory},
		{"tcp", TCP},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := newRuntime(t, append(baseOptions(10, 2), WithTransport(tc.kind))...)
			c := rt.(*Cluster)
			joiner, err := rt.Join()
			if err != nil {
				t.Fatalf("Join: %v", err)
			}
			refs := fillBatch(t, rt, 3)
			ids := rt.Nodes()

			var fetched []*block.Header
			onPaths := make(map[digest.Digest]bool)
			for _, out := range rt.AuditMany(context.Background(), coldAudits(ids, refs)) {
				res, req := out.Result, out.Request
				if out.Err != nil || !res.Consensus {
					t.Fatalf("audit of %v by %v: %v", req.Ref, req.Validator, out.Err)
				}
				if res.TrustHits != 0 {
					t.Fatalf("audit of %v by %v is not cold: %+v", req.Ref, req.Validator, res)
				}
				fetched = append(fetched, res.Path[0].Header)
				for _, s := range res.Path {
					onPaths[s.HeaderHash] = true
				}
			}

			trust := make(map[NodeID]*ledger.TrustStore, len(ids))
			total := 0
			for _, id := range ids {
				trust[id] = c.devs[id].Node().Engine().Trust()
				total += trust[id].Len()
			}
			held, shared, joinerShared := 0, 0, 0
			for d := range onPaths {
				var canon *block.Header
				var holders []NodeID
				for _, id := range ids {
					h, ok := trust[id].Get(d)
					if !ok {
						continue
					}
					if canon == nil {
						canon = h
					} else if h != canon {
						t.Fatalf("devices %v and %v hold separate copies of header %v", holders[0], id, h.Ref())
					}
					holders = append(holders, id)
				}
				held += len(holders)
				if len(holders) >= 2 {
					shared++
					if slices.Contains(holders, joiner) {
						joinerShared++
					}
				}
			}
			// Every H_i starts empty, so the audits' paths hold all of it.
			if held != total {
				t.Fatalf("H_i hold %d headers, %d of them from the audits' paths", total, held)
			}
			if shared == 0 || joinerShared == 0 {
				t.Fatalf("%d headers sit in two or more H_i, %d of them the joiner's %v: the audits shared nothing", shared, joinerShared, joiner)
			}
			for _, emb := range fetched {
				for _, id := range ids {
					if h, ok := trust[id].Get(emb.Hash()); ok && h == emb {
						t.Fatalf("device %v's H_i holds the header embedded in fetched block %v", id, emb.Ref())
					}
				}
			}
			t.Logf("%d H_i entries over %d distinct headers, %d of them shared (%d with the joiner)", total, len(onPaths), shared, joinerShared)
		})
	}
}
