package twoldag

import (
	"context"
	"testing"

	"github.com/twoldag/twoldag/internal/digest"
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
			// past the target is a reply the validator verified. The
			// first three devices' first blocks are the targets.
			var reqs []AuditRequest
			for i, v := range ids {
				target := refs[i%3]
				if target.Node == v {
					target = refs[(i+1)%3]
				}
				reqs = append(reqs, AuditRequest{Validator: v, Ref: target})
			}
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
