package node

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/ledger"
)

// TestSegmentFaultsFailAudits: B1's body lives only in node 1's
// segment (durableFig4). Damage the segment under the running node — a
// body byte flipped after the commit, or the file cut below B1's
// record — and node 1's store answers Get with ErrBadSegment, GET_BLOCK
// with NOT_FOUND, and an audit of B1 fails at once instead of waiting
// out its timeout. Headers are unaffected: B1's header is still S_i's
// newest.
func TestSegmentFaultsFailAudits(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(seg []byte) []byte
	}{
		{"flipped body byte", func(seg []byte) []byte {
			seg[len(seg)-5] ^= 0x01 // B1's last body byte: its record is the last
			return seg
		}},
		{"truncated below B1's record", func(seg []byte) []byte { return seg[:len(seg)-100] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, dir := durableFig4(t, 1)
			path := filepath.Join(dir, "blocks.seg")
			seg, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.damage(seg), 0o644); err != nil {
				t.Fatal(err)
			}
			ref := block.Ref{Node: 1, Seq: 1}
			owner := c.nodes[1].Engine().Store()
			if _, err := owner.Get(ref.Seq); !errors.Is(err, ledger.ErrBadSegment) {
				t.Fatalf("Get: %v, want ErrBadSegment", err)
			}
			if b := owner.Latest(); b.Header.Seq != 1 {
				t.Fatal("B1's header went with its body")
			}
			validator := c.nodes[0]
			ctx := context.Background()
			if _, err := (&rpcFetcher{node: validator}).FetchBlock(ctx, ref); !errors.Is(err, ledger.ErrNotFound) {
				t.Fatalf("GET_BLOCK: %v, want a NOT_FOUND reply", err)
			}
			start := time.Now()
			res, err := validator.Audit(ctx, ref)
			if err == nil || (res != nil && res.Consensus) {
				t.Fatalf("an audit of an unreadable block passed: %v", err)
			}
			if took := time.Since(start); took >= validator.cfg.RequestTimeout {
				t.Fatalf("the audit took %v: it waited for a reply instead of failing", took)
			}
		})
	}
}
