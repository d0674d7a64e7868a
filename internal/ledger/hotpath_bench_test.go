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
// buffer), buffered is a journaled trust record (the lazy tier: framed
// into the log's buffer, one write per walBufferLimit of records, no
// fsync), fsync is LogBlock, the full write-ahead append whose fsync
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

// BenchmarkHotpathWALGroupCommit prices the durable seal path in the
// shape both live drivers run it: batch owners on one shared log each
// stage one block, one Commit writes and fsyncs the round, and each
// owner's LogBlock then finds its record durable. So the per-block cost
// is the codec and 1/batch of a write and an fsync. batch=1 is one
// window per block, the fsync baseline of
// BenchmarkHotpathWALAppend/fsync; batch=64 must amortize the fsync to
// noise — the durable path converging on the memory path.
func BenchmarkHotpathWALGroupCommit(b *testing.B) {
	p := block.DefaultParams()
	p.Difficulty = pow.Difficulty(0)
	for _, batch := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			base := b.TempDir()
			l, err := OpenLog(base)
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { _ = l.Close() })
			fbs := make([]*FileBackend, batch)
			blks := make([]*block.Block, batch)
			for k := range fbs {
				o := identity.NodeID(k + 1)
				if fbs[k], err = l.OpenBackend(filepath.Join(base, fmt.Sprintf("node-%d", o))); err != nil {
					b.Fatal(err)
				}
				if _, err := fbs[k].Recover(RecoverOptions{Owner: o, Params: p}); err != nil {
					b.Fatal(err)
				}
				if blks[k], err = p.Build(identity.Deterministic(o, 1), 0, 0, make([]byte, 256), []block.DigestRef{{Node: o}}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % batch
				if err := fbs[k].StageBlock(blks[k]); err != nil {
					b.Fatal(err)
				}
				if k < batch-1 {
					continue
				}
				if err := l.Commit(); err != nil {
					b.Fatal(err)
				}
				for j, fb := range fbs {
					if err := fb.LogBlock(blks[j]); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// copyLedgerDir clones a fixture data dir file by file, so each
// recovery iteration opens a dir of its own, as a restarted process
// does.
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
// (Ring set). Every block is re-sealed and checked for PoW, body root
// and its link to its predecessor, and the chain proof then verifies
// one signature per replayed run — the newest block's — instead of
// one per block. The segment fixture holds all blocks in the segment
// (and a checkpoint); the wal fixture holds the same blocks as raw WAL
// records.
func BenchmarkRecoverCold(b *testing.B) {
	const n = 512
	key := identity.Deterministic(1, 4)
	ring := identity.NewRing()
	if err := ring.Register(key.ID, key.Public); err != nil {
		b.Fatal(err)
	}
	opts := RecoverOptions{Owner: 1, Params: testParams(), Ring: ring}

	// Build the WAL-heavy fixture: every block appended through the
	// journal, no compaction.
	walDir := b.TempDir()
	fb, err := OpenFileBackend(walDir)
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
	// The segment-heavy fixture is the same dir recovered and compacted
	// (segment + checkpoint, empty WAL).
	segDir := b.TempDir()
	copyLedgerDir(b, walDir, segDir)
	fb2, err := OpenFileBackend(segDir)
	if err != nil {
		b.Fatal(err)
	}
	st2, err := fb2.Recover(opts)
	if err != nil {
		b.Fatal(err)
	}
	if err := fb2.Compact(func() (*NodeState, error) { return st2, nil }); err != nil {
		b.Fatal(err)
	}
	if err := fb2.Close(); err != nil {
		b.Fatal(err)
	}

	for _, fix := range []struct{ name, dir string }{
		{"segment", segDir},
		{"wal", walDir},
	} {
		b.Run(fix.name, func(b *testing.B) {
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
				rst, err := rfb.Recover(opts)
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

// checkpointedOwner is the restart_durable shape: a 300-block owner of
// a shared log (1 KiB bodies) whose segment and checkpoint hold every
// block. It returns the owner's backend and a gather of its state.
func checkpointedOwner(b *testing.B) (*FileBackend, *NodeState, func() (*NodeState, error)) {
	const n = 300
	key := identity.Deterministic(1, 4)
	p := testParams()
	base := b.TempDir()
	l, err := OpenLog(base)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { l.Close() })
	fb, err := l.OpenBackend(filepath.Join(base, "node-1"))
	if err != nil {
		b.Fatal(err)
	}
	st, err := fb.Recover(RecoverOptions{Owner: 1, Params: p})
	if err != nil {
		b.Fatal(err)
	}
	st.Attach(fb)
	body := make([]byte, 1024)
	var prev digest.Digest
	for i := 0; i < n; i++ {
		body[0], body[1] = byte(i), byte(i>>8)
		blk, err := p.Build(key, uint32(i), uint32(i), body, []block.DigestRef{{Node: 1, Digest: prev}})
		if err != nil {
			b.Fatal(err)
		}
		if err := st.Store.Append(blk); err != nil {
			b.Fatal(err)
		}
		prev = blk.Header.Hash()
	}
	if err := l.Commit(); err != nil {
		b.Fatal(err)
	}
	gather := func() (*NodeState, error) { return st, nil }
	if err := fb.Compact(gather); err != nil {
		b.Fatal(err)
	}
	return fb, st, gather
}

// BenchmarkHotpathCheckpoint prices what Silence writes for a device
// with no block sealed since its checkpoint but one new A_i entry: the
// checkpoint alone — tmp, fsync, rename, dir fsync — where the
// whole-state snapshot it replaced rewrote all 300 blocks every time.
func BenchmarkHotpathCheckpoint(b *testing.B) {
	fb, st, gather := checkpointedOwner(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Cache.Update(2, digest.Digest{byte(i), byte(i >> 8), byte(i >> 16)})
		if err := fb.Compact(gather); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHotpathCheckpointClean prices what Silence writes for a
// device that logged nothing since its checkpoint: nothing.
func BenchmarkHotpathCheckpointClean(b *testing.B) {
	fb, _, gather := checkpointedOwner(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fb.Compact(gather); err != nil {
			b.Fatal(err)
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
		oldestIn(s, blocks[0].Header.Hash())
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
		if _, ok := oldestIn(s, target); !ok {
			b.Fatal("lookup miss")
		}
	}
}
