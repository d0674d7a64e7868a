package ledger

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/identity"
	"github.com/twoldag/twoldag/internal/pow"
)

// BenchmarkHotpathWALAppend prices durability on the seal path, layer
// by layer: record is the pure codec (frame + CRC-32C into a reused
// buffer), buffered is a journaled trust write (no fsync — the lazy
// tier), fsync is LogBlock, the full write-ahead append whose fsync
// gates Store.Append publishing a sealed block. The in-memory default
// (no backend attached) is a nil-journal branch, i.e. free — that
// claim is guarded by BenchmarkHotpathFaultFree and
// BenchmarkHotpathSimStep running without a data dir.
func BenchmarkHotpathWALAppend(b *testing.B) {
	key := identity.Deterministic(1, 1)
	p := block.DefaultParams()
	p.Difficulty = pow.Difficulty(0)
	blk, err := p.Build(key, 0, 0, make([]byte, 256), []block.DigestRef{{Node: 1}})
	if err != nil {
		b.Fatal(err)
	}
	enc := block.Encode(blk)
	open := func(b *testing.B) *FileBackend {
		b.Helper()
		fb, err := OpenFileBackend(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := fb.Recover(RecoverOptions{Owner: 1, Params: p}); err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { _ = fb.Close() })
		return fb
	}

	b.Run("record", func(b *testing.B) {
		buf := make([]byte, 0, walHeaderLen+len(enc)+walCRCLen)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = appendWALRecord(buf[:0], walKindBlock, enc)
		}
	})
	b.Run("buffered", func(b *testing.B) {
		fb := open(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := fb.LogTrust(&blk.Header, int64(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fsync", func(b *testing.B) {
		fb := open(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := fb.LogBlock(blk); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkHotpathWALGroupCommit prices the durable seal path under
// the batched sync policy: LogBlock stages records without blocking
// and one Commit fsync acknowledges the whole window, so the
// per-block cost is the codec plus 1/batch of an fsync. batch=1 is
// the group-commit writer doing SyncAlways-shaped work (one window
// per block, the ~185 µs fsync baseline of
// BenchmarkHotpathWALAppend/fsync); batch=64 must amortize the fsync
// to noise — the durable path converging on the memory path.
func BenchmarkHotpathWALGroupCommit(b *testing.B) {
	key := identity.Deterministic(1, 1)
	p := block.DefaultParams()
	p.Difficulty = pow.Difficulty(0)
	blk, err := p.Build(key, 0, 0, make([]byte, 256), []block.DigestRef{{Node: 1}})
	if err != nil {
		b.Fatal(err)
	}
	for _, batch := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			fb, err := OpenFileBackend(b.TempDir(), WithSyncPolicy(SyncBatch()))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := fb.Recover(RecoverOptions{Owner: 1, Params: p}); err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { _ = fb.Close() })
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := fb.LogBlock(blk); err != nil {
					b.Fatal(err)
				}
				if (i+1)%batch == 0 {
					if err := fb.Commit(); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// copyLedgerDir clones a fixture data dir file by file, so each
// recovery iteration gets a pristine copy (Recover normalizes the dir
// it runs on: a WAL-heavy fixture would become snapshot-heavy after
// the first iteration).
func copyLedgerDir(b testing.TB, src, dst string) {
	b.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecoverCold measures the cold start: open a data dir and
// rebuild the node state, with full cryptographic re-verification
// (Ring set: PoW + ed25519 per block). The snapshot fixture holds all
// blocks in snapshot v2; the wal fixture holds the same blocks as raw
// WAL records. serial pins Workers=1, parallel uses GOMAXPROCS — on
// this 1-CPU container the two match by construction (the win is
// multi-core-free: identical state, report and errors at any width),
// so the parallel rows exist to price the fan-out overhead and to
// show the speedup on real hardware.
func BenchmarkRecoverCold(b *testing.B) {
	const n = 512
	key := identity.Deterministic(1, 4)
	ring := identity.NewRing()
	if err := ring.Register(key.ID, key.Public); err != nil {
		b.Fatal(err)
	}
	opts := RecoverOptions{Owner: 1, Params: testParams(), Ring: ring}

	// Build the WAL-heavy fixture: every block staged through the
	// journal, one commit window, no compaction.
	walDir := b.TempDir()
	fb, err := OpenFileBackend(walDir, WithSyncPolicy(SyncBatch()))
	if err != nil {
		b.Fatal(err)
	}
	st, err := fb.Recover(opts)
	if err != nil {
		b.Fatal(err)
	}
	st.Attach(fb)
	for _, blk := range chainFor(b, key, n, nil) {
		if err := st.Store.Append(blk); err != nil {
			b.Fatal(err)
		}
	}
	if err := fb.Close(); err != nil {
		b.Fatal(err)
	}
	// The snapshot-heavy fixture is the same dir after one recovery
	// normalized it (fresh snapshot, empty WAL).
	snapDir := b.TempDir()
	copyLedgerDir(b, walDir, snapDir)
	fb2, err := OpenFileBackend(snapDir)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := fb2.Recover(opts); err != nil {
		b.Fatal(err)
	}
	if err := fb2.Close(); err != nil {
		b.Fatal(err)
	}

	for _, fix := range []struct{ name, dir string }{
		{"snapshot", snapDir},
		{"wal", walDir},
	} {
		for _, par := range []struct {
			name    string
			workers int
		}{
			{"serial", 1},
			{"parallel", 0},
		} {
			b.Run(fix.name+"/"+par.name, func(b *testing.B) {
				o := opts
				o.Workers = par.workers
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					dir := b.TempDir()
					copyLedgerDir(b, fix.dir, dir)
					b.StartTimer()
					rfb, err := OpenFileBackend(dir)
					if err != nil {
						b.Fatal(err)
					}
					rst, err := rfb.Recover(o)
					if err != nil {
						b.Fatal(err)
					}
					if rst.Store.Len() != n {
						b.Fatalf("recovered %d blocks, want %d", rst.Store.Len(), n)
					}
					b.StopTimer()
					if err := rfb.Close(); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
			})
		}
	}
}

// BenchmarkHotpathTrustAdd prices caching one verified header in H_i
// (Alg. 3 line 39): uncapped is the plain insert, index growth
// included; cap=1024 is the scale runs' setting, where every Add past
// the cap also evicts the oldest header, so eviction is on the timed
// path. Headers carry a Δ of nine digests nobody else references, the
// most index work an Add can do.
func BenchmarkHotpathTrustAdd(b *testing.B) {
	const pool = 1 << 16
	hdrs := make([]*block.Header, pool)
	for i := range hdrs {
		hdrs[i] = syntheticHeader(uint32(i))
	}
	for _, bc := range []struct {
		name string
		cap  int
	}{{"uncapped", 0}, {"cap=1024", 1024}} {
		b.Run(bc.name, func(b *testing.B) {
			ts := NewTrustStore()
			ts.SetCap(bc.cap)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h := hdrs[i%pool]
				// A capped store evicted h long before the pool comes
				// round again; an uncapped one starts over instead.
				if bc.cap == 0 && i > 0 && i%pool == 0 {
					b.StopTimer()
					ts = NewTrustStore()
					b.StartTimer()
				}
				if !ts.Add(h) {
					b.Fatal("Add reported a duplicate")
				}
			}
		})
	}
}

// BenchmarkHotpathStoreAppend prices publishing one sealed block in
// S_i on a node that has answered a responder query, so the index
// exists and Append keeps it current: the map inserts and the
// key-collision check are on the timed path. Blocks carry a Δ of nine
// digests nobody else references, the most index work an Append can
// do (the store starts over every 65,536 appends).
func BenchmarkHotpathStoreAppend(b *testing.B) {
	const pool = 1 << 16
	blocks := syntheticBlocks(b, pool)
	indexed := func() *Store {
		s := NewStore(1)
		s.OldestContaining(blocks[0].Header.Hash())
		return s
	}
	s := indexed()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%pool == 0 {
			b.StopTimer()
			s = indexed()
			b.StartTimer()
		}
		if err := s.Append(blocks[i%pool]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHotpathStoreOldestContaining measures the REQ_CHILD
// responder lookup (Alg. 4) with MB-scale bodies — the call that used
// to deep-copy the whole block per hop and now returns a shared sealed
// reference: one probe of the 64-bit-keyed index plus the comparison
// against the answering block's own Δ.
func BenchmarkHotpathStoreOldestContaining(b *testing.B) {
	key := identity.Deterministic(1, 1)
	p := block.DefaultParams()
	p.Difficulty = pow.Difficulty(0)
	s := NewStore(1)
	target := digest.Sum([]byte("parent header"))
	body := make([]byte, 1_000_000) // 1 MB, the paper's largest C
	prev := digest.Digest{}
	for i := 0; i < 8; i++ {
		refs := []block.DigestRef{{Node: 1, Digest: prev}, {Node: 9, Digest: target}}
		blk, err := p.Build(key, uint32(i), uint32(i), body, refs)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Append(blk); err != nil {
			b.Fatal(err)
		}
		prev = blk.Header.Hash()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.OldestContaining(target); !ok {
			b.Fatal("lookup miss")
		}
	}
}
