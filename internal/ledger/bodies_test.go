package ledger

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/identity"
)

// bodyChain builds key's chain of n blocks with 1 KiB bodies, each
// linked to its predecessor — the benchmark workloads' block shape.
func bodyChain(t testing.TB, key identity.KeyPair, n int) []*block.Block {
	t.Helper()
	p := testParams()
	out := make([]*block.Block, 0, n)
	var prev digest.Digest
	body := make([]byte, 1024)
	for i := 0; i < n; i++ {
		body[0], body[1], body[1023] = byte(i), byte(i>>8), 0xA5
		b, err := p.Build(key, uint32(i), uint32(i), body, []block.DigestRef{{Node: key.ID, Digest: prev}})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
		prev = b.Header.Hash()
	}
	return out
}

// segmentedStore is a one-owner data dir holding chain in its segment,
// reopened: the recovered S_i keeps every block without its body. It
// returns the dir and the store.
func segmentedStore(t *testing.T, chain []*block.Block) (string, *Store) {
	t.Helper()
	dir := t.TempDir()
	opts := RecoverOptions{Owner: 1, Params: testParams()}
	fb, st := openBackend(t, dir, opts)
	for _, b := range chain {
		if err := st.Store.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	// Compaction moves the WAL's blocks to the segment; the recovery
	// that follows reads the segment alone.
	if err := fb.Compact(func() (*NodeState, error) { return st, nil }); err != nil {
		t.Fatal(err)
	}
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	fb, st = openBackend(t, dir, opts)
	t.Cleanup(func() { fb.Close() })
	if rep := fb.RecoveryReport(); rep.SegmentBlocks != len(chain) {
		t.Fatalf("recovered %+v, want all %d blocks from the segment", rep, len(chain))
	}
	return dir, st.Store
}

// TestSegmentedBlocksReadBack: once the commit window that logged its
// blocks has fsynced, S_i holds none of them but the newest, and that
// one without its body, whether the log or the segment holds their
// records — after the appends, the compaction that copies the records,
// more appends, a restart that replays the log and its compaction alike
// — and Get returns each block byte-identical to the one sealed,
// Headers each header, the state digest and BodyBytes unmoved.
func TestSegmentedBlocksReadBack(t *testing.T) {
	key := identity.Deterministic(1, 4)
	chain := bodyChain(t, key, 20)
	opts := RecoverOptions{Owner: 1, Params: testParams()}
	dir := t.TempDir()
	fb, st := openBackend(t, dir, opts)
	defer func() { fb.Close() }()
	for _, b := range chain[:12] {
		if err := st.Store.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	want, wantBytes := st.Digest(), st.Store.BodyBytes()
	check := func(stage string, st *NodeState, segmented int) {
		t.Helper()
		hs, err := st.Store.Headers()
		if err != nil {
			t.Fatalf("%s: Headers: %v", stage, err)
		}
		st.Store.mu.RLock()
		inSeg, recorded := st.Store.segmentedLocked(), st.Store.recordedLocked()
		st.Store.mu.RUnlock()
		if inSeg != segmented || recorded != st.Store.Len() {
			t.Fatalf("%s: %d blocks in the segment and %d in the log of %d, want %d and the rest", stage, inSeg, recorded-inSeg, st.Store.Len(), segmented)
		}
		for seq := 0; seq < st.Store.Len(); seq++ {
			st.Store.mu.RLock()
			b := st.Store.blocks[seq]
			st.Store.mu.RUnlock()
			header, body := b != nil, b != nil && b.Body != nil
			if newest := seq == st.Store.Len()-1; header != newest || body {
				t.Fatalf("%s: block %d: header held %v, body held %v", stage, seq, header, body)
			}
			if hs[seq].Hash() != chain[seq].Header.Hash() {
				t.Fatalf("%s: Headers()[%d] is another block's", stage, seq)
			}
			got, err := st.Store.Get(uint32(seq))
			if err != nil {
				t.Fatalf("%s: Get(%d): %v", stage, seq, err)
			}
			if !bytes.Equal(block.Encode(got), block.Encode(chain[seq])) {
				t.Fatalf("%s: block %d reads back as another block", stage, seq)
			}
		}
	}
	check("after appending", st, 0)
	if err := fb.Compact(func() (*NodeState, error) { return st, nil }); err != nil {
		t.Fatal(err)
	}
	check("after compaction", st, 12)
	if st.Digest() != want || st.Store.BodyBytes() != wantBytes {
		t.Fatal("letting the bodies go moved the state digest or BodyBytes")
	}
	for _, b := range chain[12:] {
		if err := st.Store.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	check("after appending again", st, 12)
	want, wantBytes = st.Digest(), st.Store.BodyBytes()
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	fb, st = openBackend(t, dir, opts)
	check("after a restart", st, 12)
	// Compacted as the opener does once every owner has recovered: the
	// 8 replayed blocks join the segment.
	if err := fb.Compact(func() (*NodeState, error) { return st, nil }); err != nil {
		t.Fatal(err)
	}
	check("after the restart's compaction", st, 20)
	if st.Digest() != want || st.Store.BodyBytes() != wantBytes {
		t.Fatal("the restarted state digests differently or counts other body bytes")
	}
}

// TestSegmentedAfterShadowCommit: a compaction may commit a state other
// than the one Recover returned (the benchmark's drills fold a shadow
// store). Its blocks then sit in the segment where the recovered S_i
// has none, so that S_i holds whole again the blocks only the log held
// — the compaction lets their generation go — and lets go of no body
// from then on, its later commits included, and every block it holds
// still reads back as sealed.
func TestSegmentedAfterShadowCommit(t *testing.T) {
	chain := bodyChain(t, identity.Deterministic(1, 4), 8)
	fb, st := openBackend(t, t.TempDir(), RecoverOptions{Owner: 1, Params: testParams()})
	defer fb.Close()
	for _, b := range chain[:3] {
		if err := st.Store.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	shadow := NewNodeState(1, 0)
	for _, b := range chain[:6] {
		if err := shadow.Store.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := fb.Compact(func() (*NodeState, error) { return shadow, nil }); err != nil {
		t.Fatal(err)
	}
	for _, b := range chain[3:] {
		if err := st.Store.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := fb.Compact(func() (*NodeState, error) { return st, nil }); err != nil {
		t.Fatal(err)
	}
	for seq, want := range chain {
		got, err := st.Store.Get(uint32(seq))
		if err != nil {
			t.Fatalf("Get(%d): %v", seq, err)
		}
		if got.Body == nil || !bytes.Equal(block.Encode(got), block.Encode(want)) {
			t.Fatalf("block %d reads back as another block", seq)
		}
	}
}

// TestSegmentedGetConcurrent: readers Get and Serve blocks while the
// owner appends and compacts, each compaction moving the records they
// read from the log to the segment and closing the generation that held
// them under reads in flight. Every read must be the block sealed.
func TestSegmentedGetConcurrent(t *testing.T) {
	const rounds, per = 6, 16
	chain := bodyChain(t, identity.Deterministic(1, 4), rounds*per)
	fb, st := openBackend(t, t.TempDir(), RecoverOptions{Owner: 1, Params: testParams()})
	defer fb.Close()
	var published atomic.Int64
	stop := readConcurrently(t, st.Store, encodeAll(chain), &published)
	for round := 0; round < rounds; round++ {
		for _, b := range chain[round*per : (round+1)*per] {
			if err := st.Store.Append(b); err != nil {
				t.Fatal(err)
			}
			published.Add(1)
		}
		if err := fb.Compact(func() (*NodeState, error) { return st, nil }); err != nil {
			t.Fatal(err)
		}
	}
	stop()
}

// TestShadowCommitUnderReads: readers Get and Serve the recovered
// store's blocks while a compaction commits a shadow state's copy of
// them instead. The store then holds whole again the blocks only the log
// held (Store.holdWhole), and the generation they sat in closes under
// reads in flight. Blocks appended while that commit runs, and after
// it, the store holds whole too: it keeps no log span past its next
// compaction. Every read must be the block sealed.
func TestShadowCommitUnderReads(t *testing.T) {
	const rounds, per = 8, 16
	chain := bodyChain(t, identity.Deterministic(1, 4), 2*per)
	encs := encodeAll(chain)
	for round := 0; round < rounds; round++ {
		fb, st := openBackend(t, t.TempDir(), RecoverOptions{Owner: 1, Params: testParams()})
		var published atomic.Int64
		stop := readConcurrently(t, st.Store, encs, &published)
		shadow := NewNodeState(1, 0)
		for _, b := range chain[:per] {
			if err := st.Store.Append(b); err != nil {
				t.Fatal(err)
			}
			if err := shadow.Store.Append(b); err != nil {
				t.Fatal(err)
			}
			published.Add(1)
		}
		appended := make(chan error, 1)
		go func() {
			for _, b := range chain[per:] {
				if err := st.Store.Append(b); err != nil {
					appended <- err
					return
				}
				published.Add(1)
			}
			appended <- nil
		}()
		if err := fb.Compact(func() (*NodeState, error) { return shadow, nil }); err != nil {
			t.Fatal(err)
		}
		if err := <-appended; err != nil {
			t.Fatal(err)
		}
		if err := fb.Compact(func() (*NodeState, error) { return st, nil }); err != nil {
			t.Fatal(err)
		}
		stop()
		if st.Store.mu.RLock(); len(st.Store.wal) != 0 {
			t.Errorf("the store keeps %d log spans after a shadow commit", len(st.Store.wal))
		}
		st.Store.mu.RUnlock()
		if err := fb.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// readConcurrently starts readers that Get and Serve random blocks of s
// below published until the returned stop is called (at the latest as
// the test ends), each read checked against encs, the chain's encodings.
func readConcurrently(t *testing.T, s *Store, encs [][]byte, published *atomic.Int64) (stop func()) {
	done := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-done:
					return
				default:
				}
				n := published.Load()
				if n == 0 {
					continue
				}
				seq := uint32(rng.Int63n(n))
				var enc []byte
				if rng.Intn(2) == 0 {
					b, err := s.Get(seq)
					if err != nil {
						t.Errorf("Get(%d): %v", seq, err)
						return
					}
					enc = block.Encode(b)
				} else {
					v, err := s.Serve(seq)
					if err != nil {
						t.Errorf("Serve(%d): %v", seq, err)
						return
					}
					if enc = v.Enc; v.Block != nil {
						enc = block.Encode(v.Block)
					}
				}
				if !bytes.Equal(enc, encs[seq]) {
					t.Errorf("block %d reads back as another block", seq)
					return
				}
			}
		}(int64(r))
	}
	stop = sync.OnceFunc(func() {
		close(done)
		readers.Wait()
	})
	t.Cleanup(stop)
	return stop
}

// loggedStore is a one-owner data dir whose log holds chain, appended
// through the store's journal and never compacted: S_i keeps a span of
// each block's record in wal.log. With replayed set the dir is reopened
// first, so the spans are those WAL replay restores. It returns the dir
// and the store.
func loggedStore(t *testing.T, chain []*block.Block, replayed bool) (string, *Store) {
	t.Helper()
	dir := t.TempDir()
	opts := RecoverOptions{Owner: 1, Params: testParams()}
	fb, st := openBackend(t, dir, opts)
	for _, b := range chain {
		if err := st.Store.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if replayed {
		if err := fb.Close(); err != nil {
			t.Fatal(err)
		}
		fb, st = openBackend(t, dir, opts)
		if rep := fb.RecoveryReport(); rep.WALBlocks != len(chain) {
			t.Fatalf("recovered %+v, want all %d blocks from the log", rep, len(chain))
		}
	}
	t.Cleanup(func() { fb.Close() })
	s := st.Store
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.segmentedLocked() != 0 || len(s.wal) != len(chain) {
		t.Fatalf("%d blocks in the segment and %d in the log, want all %d in the log", s.segmentedLocked(), len(s.wal), len(chain))
	}
	return dir, s
}

// residences are the files a durable store reads its blocks back from,
// and how a test fills one with a chain whose records sit back to back
// in it.
var residences = []struct {
	name, file string
	open       func(*testing.T, []*block.Block) (string, *Store)
}{
	{"segment", segmentFileName, segmentedStore},
	{"log", walFileName, func(t *testing.T, c []*block.Block) (string, *Store) { return loggedStore(t, c, false) }},
	{"replayed log", walFileName, func(t *testing.T, c []*block.Block) (string, *Store) { return loggedStore(t, c, true) }},
}

// TestSegmentedGetFaults: damage to a committed record is never served
// as a block or a header, whether the segment or the log generation
// holds it. A flipped body byte fails the record's CRC; a file cut
// below a recorded end ends inside the record; a record moved to
// another block's offset is a valid record of the wrong block — each is
// ErrBadSegment from Get, from Serve, and from the responder query
// whose answer is that block (OldestContaining), whether its index was
// built before the damage or reads every header back after it, while a
// query an older, intact block answers still answers. A body byte
// flipped with the CRC recomputed passes (the header is the stored one)
// and fails validation against the header's Root instead, as any
// substituted body does. And a closed backend, or a closed log, reads
// nothing back: Get, Serve, the responder query and Headers fail with
// an I/O error, not a verdict on the record, while what S_i keeps — the
// newest header, the state digest — outlives it.
func TestSegmentedGetFaults(t *testing.T) {
	key := identity.Deterministic(1, 4)
	ring := identity.NewRing()
	if err := ring.Register(key.ID, key.Public); err != nil {
		t.Fatal(err)
	}
	chain := bodyChain(t, key, 6)
	recLen := int64(len(appendWALRecord(nil, walKindBlock, block.Encode(chain[0]))))
	// Block 3's Δ holds block 2's hash: the query whose answer is block 3.
	child := chain[2].Header.Hash()
	for _, tc := range []struct {
		name   string
		damage func(file []byte) []byte
		bad    bool // ErrBadSegment from Get; otherwise Validate fails
	}{
		{"flipped body byte", func(file []byte) []byte {
			file[4*recLen-walCRCLen-1] ^= 0x01
			return file
		}, true},
		{"truncated below a recorded end", func(file []byte) []byte { return file[:3*recLen+recLen/2] }, true},
		{"another block's record", func(file []byte) []byte {
			copy(file[3*recLen:4*recLen], file[2*recLen:3*recLen])
			return file
		}, true},
		{"flipped body byte, CRC recomputed", func(file []byte) []byte {
			file[4*recLen-walCRCLen-1] ^= 0x01
			reframeWAL(file)
			return file
		}, false},
	} {
		for _, where := range residences {
			t.Run(where.name+"/"+tc.name, func(t *testing.T) {
				for _, indexed := range []bool{false, true} {
					t.Run(fmt.Sprintf("index built before %v", indexed), func(t *testing.T) {
						dir, s := where.open(t, chain)
						if indexed {
							if h, ok := oldestHeader(s, child); !ok || h.Hash() != chain[3].Header.Hash() {
								t.Fatal("the intact records answer another block")
							}
						}
						path := filepath.Join(dir, where.file)
						file, err := os.ReadFile(path)
						if err != nil {
							t.Fatal(err)
						}
						if err := os.WriteFile(path, tc.damage(file), 0o644); err != nil {
							t.Fatal(err)
						}
						got, err := s.Get(3)
						switch {
						case tc.bad && !errors.Is(err, ErrBadSegment):
							t.Fatalf("Get of a damaged record: %v, %v; want ErrBadSegment", got, err)
						case !tc.bad && err != nil:
							t.Fatalf("Get: %v", err)
						case !tc.bad:
							if got.Header.Hash() != chain[3].Header.Hash() {
								t.Fatal("the record read back holds another header")
							}
							if err := testParams().Validate(got, ring); !errors.Is(err, block.ErrRootMismatch) {
								t.Fatalf("a substituted body validates: %v", err)
							}
						}
						served, err := s.Serve(3)
						switch {
						case tc.bad && !errors.Is(err, ErrBadSegment):
							t.Fatalf("Serve of a damaged record: %+v, %v; want ErrBadSegment", served, err)
						case !tc.bad && err != nil:
							t.Fatalf("Serve: %v", err)
						case !tc.bad && digest.Sum(served.Enc[:served.HeaderLen]) != chain[3].Header.Hash():
							t.Fatal("Serve answers another header")
						}
						v, err := s.OldestContaining(child)
						switch {
						case tc.bad && !errors.Is(err, ErrBadSegment):
							t.Fatalf("responder query answered by a damaged record: %+v, %v; want ErrBadSegment", v, err)
						case !tc.bad && err != nil:
							t.Fatalf("responder query: %v", err)
						case !tc.bad && digest.Sum(v.Enc[:v.HeaderLen]) != chain[3].Header.Hash():
							t.Fatal("the responder query answers another header")
						}
						// The blocks before the damage still read back, and answer
						// the queries whose oldest holder they are.
						if got, err := s.Get(1); err != nil || !bytes.Equal(block.Encode(got), block.Encode(chain[1])) {
							t.Fatalf("an intact record: %v", err)
						}
						if h, ok := oldestHeader(s, chain[0].Header.Hash()); !ok || h.Hash() != chain[1].Header.Hash() {
							t.Fatal("a query answered by an intact block older than the damage fails")
						}
					})
				}
			})
		}
	}
	for _, compacted := range []bool{true, false} {
		name := "closed log, blocks in the log"
		if compacted {
			name = "closed backend, blocks in the segment"
		}
		t.Run(name, func(t *testing.T) {
			fb, st := openBackend(t, t.TempDir(), RecoverOptions{Owner: 1, Params: testParams()})
			for _, b := range chain {
				if err := st.Store.Append(b); err != nil {
					t.Fatal(err)
				}
			}
			if compacted {
				if err := fb.Compact(func() (*NodeState, error) { return st, nil }); err != nil {
					t.Fatal(err)
				}
			}
			want := st.Digest()
			if err := fb.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := st.Store.Get(2); err == nil || errors.Is(err, ErrBadSegment) {
				t.Fatalf("Get after Close: %v; want an I/O error, not a verdict on the record", err)
			}
			if _, err := st.Store.Serve(2); err == nil || errors.Is(err, ErrBadSegment) {
				t.Fatalf("Serve after Close: %v; want an I/O error, not a verdict on the record", err)
			}
			if _, err := st.Store.OldestContaining(child); err == nil || errors.Is(err, ErrBadSegment) || errors.Is(err, ErrNotFound) {
				t.Fatalf("responder query after Close: %v; want an I/O error, not a verdict on the record", err)
			}
			if _, err := st.Store.Headers(); err == nil || errors.Is(err, ErrBadSegment) {
				t.Fatalf("Headers after Close: %v; want an I/O error, not a verdict on the record", err)
			}
			if b := st.Store.Latest(); b == nil || b.Header.Hash() != chain[len(chain)-1].Header.Hash() {
				t.Fatal("the newest header went with the backend")
			}
			if st.Digest() != want {
				t.Fatal("the state digest moved with the backend's close")
			}
		})
	}
}

// TestCompactionRefusesDamagedLogRecord: a compaction copies the records
// of the blocks only the log holds into the segment, each read back as
// Get reads it and its body hashed to the root S_i keeps. A damaged
// record of the rotated generation — a flipped body byte, the same with
// its CRC recomputed (the stored header over another body), another
// block's record, the generation cut inside the record — fails the
// compaction with ErrBadSegment, kept as the log's sticky error: the
// owner's checkpoint stays the one before, and wal.old stays for a
// restart to replay.
func TestCompactionRefusesDamagedLogRecord(t *testing.T) {
	chain := bodyChain(t, identity.Deterministic(1, 4), 6)
	recLen := len(appendWALRecord(nil, walKindBlock, block.Encode(chain[0])))
	// After the first compaction, wal.log holds blocks 2 to 5: block 3's
	// record is its second.
	for _, tc := range []struct {
		name   string
		damage func(file []byte) []byte
	}{
		{"flipped body byte", func(file []byte) []byte {
			file[2*recLen-walCRCLen-1] ^= 0x01
			return file
		}},
		{"flipped body byte, CRC recomputed", func(file []byte) []byte {
			file[2*recLen-walCRCLen-1] ^= 0x01
			reframeWAL(file)
			return file
		}},
		{"another block's record", func(file []byte) []byte {
			copy(file[recLen:2*recLen], file[:recLen])
			return file
		}},
		{"truncated below a recorded end", func(file []byte) []byte { return file[:recLen+recLen/2] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			fb, st := openBackend(t, dir, RecoverOptions{Owner: 1, Params: testParams()})
			defer fb.Close()
			gather := func() (*NodeState, error) { return st, nil }
			for i, b := range chain {
				if i == 2 {
					if err := fb.Compact(gather); err != nil {
						t.Fatal(err)
					}
				}
				if err := st.Store.Append(b); err != nil {
					t.Fatal(err)
				}
			}
			ckptPath, walPath := filepath.Join(dir, checkpointFileName), filepath.Join(dir, walFileName)
			ckpt, err := os.ReadFile(ckptPath)
			if err != nil {
				t.Fatal(err)
			}
			file, err := os.ReadFile(walPath)
			if err != nil {
				t.Fatal(err)
			}
			if len(file) != 4*recLen {
				t.Fatalf("wal.log holds %d bytes, want the 4 records of blocks 2 to 5", len(file))
			}
			if err := os.WriteFile(walPath, tc.damage(file), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := fb.Compact(gather); !errors.Is(err, ErrBadSegment) {
				t.Fatalf("a compaction over a damaged log record: %v, want ErrBadSegment", err)
			}
			if err := fb.Sync(); !errors.Is(err, ErrBadSegment) {
				t.Fatalf("the sticky error after the failed compaction: %v, want ErrBadSegment", err)
			}
			if got, err := os.ReadFile(ckptPath); err != nil || !bytes.Equal(got, ckpt) {
				t.Fatalf("the failed compaction changed the checkpoint (%v)", err)
			}
			if _, err := os.Stat(filepath.Join(dir, walOldFileName)); err != nil {
				t.Fatalf("the failed compaction let wal.old go: %v", err)
			}
		})
	}
}

// openUnder lists the files under dir this process holds open, read
// from /proc/self/fd — a deleted one with the " (deleted)" the kernel
// appends. The test skips where that cannot be read.
func openUnder(t *testing.T, dir string) []string {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot list this process's open files: %v", err)
	}
	if real, err := filepath.EvalSymlinks(dir); err == nil {
		dir = real
	}
	var open []string
	for _, fd := range fds {
		target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name()))
		if err == nil && strings.HasPrefix(target, dir+string(filepath.Separator)) {
			open = append(open, strings.TrimPrefix(target, dir+string(filepath.Separator)))
		}
	}
	slices.Sort(open)
	return open
}

// TestCompactionClosesRotatedGeneration: the log keeps one read handle
// per live generation, which stores read the blocks only the log holds
// back through. The compaction that deletes wal.old closes the handle on
// it as it ends, and the blocks read back from the segment; Close lets
// go of every file.
func TestCompactionClosesRotatedGeneration(t *testing.T) {
	chain := bodyChain(t, identity.Deterministic(1, 4), 6)
	dir := t.TempDir()
	openUnder(t, dir)
	fb, st := openBackend(t, dir, RecoverOptions{Owner: 1, Params: testParams()})
	defer fb.Close()
	for i, b := range chain {
		if err := st.Store.Append(b); err != nil {
			t.Fatal(err)
		}
		if i%2 == 1 {
			if err := fb.Compact(func() (*NodeState, error) { return st, nil }); err != nil {
				t.Fatal(err)
			}
			// The log's writer and reader on wal.log, the segment's reader.
			if open := openUnder(t, dir); !slices.Equal(open, []string{segmentFileName, walFileName, walFileName}) {
				t.Fatalf("after compaction %d the log holds %q open", i/2, open)
			}
		}
	}
	for seq, want := range chain {
		if got, err := st.Store.Get(uint32(seq)); err != nil || !bytes.Equal(block.Encode(got), block.Encode(want)) {
			t.Fatalf("block %d after the compactions: %v", seq, err)
		}
	}
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	if open := openUnder(t, dir); len(open) != 0 {
		t.Fatalf("the closed log holds %q open", open)
	}
}

// hostileReadChain is the chain the read fuzzers damage records of,
// the ring that authenticates it, and the block that answers each
// digest the chain references.
func hostileReadChain(f *testing.F) ([]*block.Block, *identity.Ring, map[digest.Digest]*block.Block) {
	key := identity.Deterministic(1, 4)
	ring := identity.NewRing()
	if err := ring.Register(key.ID, key.Public); err != nil {
		f.Fatal(err)
	}
	chain := proofChain(f, key, 4, rand.New(rand.NewSource(1)), true)
	oldest := map[digest.Digest]*block.Block{}
	for _, b := range chain {
		for _, r := range b.Header.Digests {
			if _, ok := oldest[r.Digest]; !ok && !r.Digest.IsZero() {
				oldest[r.Digest] = b
			}
		}
	}
	// Block 1's own record with its Time field changed: a record of the
	// right length and, re-framed, a valid CRC, whose header is not the
	// stored one.
	recs := walBlockRecords(encodeAll(chain[1:2]))
	retimed := bytes.Clone(recs)
	retimed[walHeaderLen+4] ^= 0x01
	f.Add(uint8(1), false, recs)
	f.Add(uint8(2), true, recs)
	f.Add(uint8(0x82), true, recs)
	f.Add(uint8(1), true, retimed)
	f.Add(uint8(0x81), true, retimed)
	f.Add(uint8(3), true, appendWALRecord(nil, walKindBlock, []byte("not a block")))
	f.Add(uint8(0), false, []byte{walKindBlock, 0xff, 0xff, 0xff, 0xff})
	return chain, ring, oldest
}

// checkHostileRead reads block seq of s, and answers the responder
// query for every digest in oldest, over a damaged record: each must
// answer what the chain holds, or ErrBadSegment. Get must return a
// block whose header is the stored one, with the sealed body or one
// that fails validation against that header's Root, and Serve the
// stored header. Never a panic, never another block's header.
func checkHostileRead(t *testing.T, s *Store, chain []*block.Block, ring *identity.Ring, oldest map[digest.Digest]*block.Block, seq uint32) {
	for d, want := range oldest {
		v, err := s.OldestContaining(d)
		if err != nil {
			if !errors.Is(err, ErrBadSegment) {
				t.Fatalf("a responder query over a hostile record: %v, not ErrBadSegment", err)
			}
			continue
		}
		h, err := v.Header()
		if err != nil {
			t.Fatalf("a served header does not decode: %v", err)
		}
		if h.Hash() != want.Header.Hash() {
			t.Fatal("the responder query answered another block's header")
		}
	}
	want := chain[seq]
	if v, err := s.Serve(seq); err != nil {
		if !errors.Is(err, ErrBadSegment) {
			t.Fatalf("a hostile record served as %v, not ErrBadSegment", err)
		}
	} else if h, err := v.Header(); err != nil || h.Hash() != want.Header.Hash() {
		t.Fatalf("Serve answered another block's header (%v)", err)
	}
	b, err := s.Get(seq)
	if err != nil {
		if !errors.Is(err, ErrBadSegment) {
			t.Fatalf("a hostile record read as %v, not ErrBadSegment", err)
		}
		return
	}
	if b.Header.Hash() != want.Header.Hash() {
		t.Fatal("Get returned another block's header")
	}
	if !bytes.Equal(b.Body, want.Body) && testParams().Validate(b, ring) == nil {
		t.Fatal("Get returned a substituted body that validates")
	}
}

// FuzzSegmentRead writes hostile bytes over the record of block k in a
// segment a store reads its blocks from — re-framed with a valid CRC
// when reframe is set, so they reach the record's header and length
// checks — its index built before the damage when k's top bit is set,
// after it otherwise, and holds every read to checkHostileRead.
func FuzzSegmentRead(f *testing.F) {
	chain, ring, oldest := hostileReadChain(f)
	st := NewNodeState(1, 0)
	for _, b := range chain {
		if err := st.Store.Append(b); err != nil {
			f.Fatal(err)
		}
	}
	ckpt, seg := stateFiles(st)
	opts := RecoverOptions{Owner: 1, Params: testParams()}
	f.Fuzz(func(t *testing.T, k uint8, reframe bool, hostile []byte) {
		buf := bytes.Clone(seg)
		got, err := readStateFiles(ckpt, buf, opts)
		if err != nil {
			t.Fatal(err)
		}
		if k&0x80 != 0 {
			if _, err := got.Store.OldestContaining(chain[0].Header.Hash()); err != nil {
				t.Fatal(err)
			}
		}
		seq := uint32(k) % uint32(len(chain))
		got.Store.mu.RLock()
		start := got.Store.seg.recordAt(1, seq).start
		got.Store.mu.RUnlock()
		copy(buf[start:], hostile)
		if reframe {
			reframeWAL(buf[start:])
		}
		checkHostileRead(t, got.Store, chain, ring, oldest, seq)
	})
}

// FuzzWALResidentRead is FuzzSegmentRead for blocks only the log holds:
// a store appends the chain through its journal, and each input writes
// hostile bytes over block k's record in wal.log — the generation the
// store reads it back from — after restoring the file and dropping the
// store's index.
func FuzzWALResidentRead(f *testing.F) {
	chain, ring, oldest := hostileReadChain(f)
	dir := f.TempDir()
	fb, err := OpenFileBackend(dir)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { fb.Close() })
	st, err := fb.Recover(RecoverOptions{Owner: 1, Params: testParams()})
	if err != nil {
		f.Fatal(err)
	}
	st.Attach(fb)
	for _, b := range chain {
		if err := st.Store.Append(b); err != nil {
			f.Fatal(err)
		}
	}
	s := st.Store
	if s.segmentedLocked() != 0 || len(s.wal) != len(chain) {
		f.Fatalf("%d of %d blocks read back from the log", len(s.wal), len(chain))
	}
	pristine, err := os.ReadFile(filepath.Join(dir, walFileName))
	if err != nil {
		f.Fatal(err)
	}
	w, err := os.OpenFile(filepath.Join(dir, walFileName), os.O_WRONLY, 0)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { w.Close() })
	f.Fuzz(func(t *testing.T, k uint8, reframe bool, hostile []byte) {
		if _, err := w.WriteAt(pristine, 0); err != nil {
			t.Fatal(err)
		}
		s.mu.Lock()
		s.index = slotTable{}
		s.mu.Unlock()
		if k&0x80 != 0 {
			if _, err := s.OldestContaining(chain[0].Header.Hash()); err != nil {
				t.Fatal(err)
			}
		}
		seq := uint32(k) % uint32(len(chain))
		s.mu.RLock()
		rr := s.recordLocked(seq)
		s.mu.RUnlock()
		buf := bytes.Clone(pristine)
		copy(buf[rr.start:], hostile)
		if reframe {
			reframeWAL(buf[rr.start:])
		}
		if _, err := w.WriteAt(buf, 0); err != nil {
			t.Fatal(err)
		}
		checkHostileRead(t, s, chain, ring, oldest, seq)
	})
}

// countingReaderAt counts the reads of a segment.
type countingReaderAt struct {
	r     io.ReaderAt
	reads atomic.Int64
}

func (c *countingReaderAt) ReadAt(b []byte, off int64) (int, error) {
	c.reads.Add(1)
	return c.r.ReadAt(b, off)
}

// TestSilentNeighbourIndexReadsNoSegment: a neighbour that stops
// announcing leaves its last digest in the Δ of every later block.
// Once the oldest block holding it is segmented, neither Append nor an
// index build may read that block back for each later one: the
// previous block's Δ already shows an older block holds the digest.
// Appends to an indexed durable store read nothing across two
// compactions, its answers stay right, and a rebuild reads each
// segmented header once.
func TestSilentNeighbourIndexReadsNoSegment(t *testing.T) {
	const n = 24
	p := testParams()
	key := identity.Deterministic(1, 4)
	silent := digest.Sum([]byte("a neighbour that fell silent"))
	fresh := func(i int) digest.Digest { return digest.Sum([]byte{byte(i), 'n'}) }
	chain := make([]*block.Block, 0, 3*n)
	var prev digest.Digest
	for i := 0; i < 3*n; i++ {
		refs := []block.DigestRef{{Node: 1, Digest: prev}, {Node: 2, Digest: silent}, {Node: 3, Digest: fresh(i)}}
		b, err := p.Build(key, uint32(i), uint32(i), []byte{byte(i)}, refs)
		if err != nil {
			t.Fatal(err)
		}
		chain = append(chain, b)
		prev = b.Header.Hash()
	}
	fb, st := openBackend(t, t.TempDir(), RecoverOptions{Owner: 1, Params: p})
	defer fb.Close()
	s := st.Store
	appendAll := func(bs []*block.Block) {
		for _, b := range bs {
			if err := s.Append(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	compact := func() {
		if err := fb.Compact(func() (*NodeState, error) { return st, nil }); err != nil {
			t.Fatal(err)
		}
	}
	oldest := func(d digest.Digest, want uint32) {
		t.Helper()
		v, err := s.OldestContaining(d)
		if err != nil {
			t.Fatal(err)
		}
		if h, err := v.Header(); err != nil || h.Seq != want {
			t.Fatalf("OldestContaining(%s) = %v, %v; want block %d", d.Short(), h, err, want)
		}
	}

	appendAll(chain[:n])
	oldest(silent, 0) // builds the index, every block held
	compact()
	s.mu.Lock()
	if s.segmentedLocked() != n {
		s.mu.Unlock()
		t.Fatalf("%d of %d blocks segmented", s.segmentedLocked(), n)
	}
	seg := &countingReaderAt{r: s.seg.r}
	s.seg.r = seg
	s.mu.Unlock()
	appendAll(chain[n : 2*n])
	compact()
	appendAll(chain[2*n:])
	if r := seg.reads.Load(); r != 0 {
		t.Fatalf("%d appends carrying a silent neighbour's digest read the segment %d times, want 0", 2*n, r)
	}
	oldest(silent, 0)
	for _, i := range []int{0, n - 1, n, 2*n - 1, 3*n - 1} {
		oldest(fresh(i), uint32(i))
	}

	s.mu.Lock()
	segmented := s.segmentedLocked()
	s.index = slotTable{}
	s.mu.Unlock()
	seg.reads.Store(0)
	oldest(silent, 0)
	if r := seg.reads.Load(); r != int64(segmented)+1 {
		t.Fatalf("an index build over %d segmented blocks and one answer read the segment %d times, want %d", segmented, r, segmented+1)
	}
}

// TestDurableStoreBytesPerBlock is the heap ceiling of a durable S_i: a
// recovered store whose 1 KiB-body blocks all sit in its segment,
// against an in-memory store of the same blocks, measured side by side.
// The durable one must hold at least 900 B a block less — the block it
// lets go, less what it keeps — and stay under its ceiling: a header
// hash, a body root and a record end (72 B) and a log slot (8 B) per
// block, where it held the whole header (~660 B) before.
func TestDurableStoreBytesPerBlock(t *testing.T) {
	durableStoreBytesPerBlock(t, "in the segment", func(blocks []*block.Block) map[string][]byte {
		st := NewNodeState(1, 0)
		for _, b := range blocks {
			if err := st.Store.Append(b); err != nil {
				t.Fatal(err)
			}
		}
		ckpt, seg := stateFiles(st)
		return map[string][]byte{checkpointFileName: ckpt, segmentFileName: seg}
	})
}

// TestLoggedStoreBytesPerBlock is TestDurableStoreBytesPerBlock for
// blocks whose commit window has fsynced and no compaction has copied:
// a store whose blocks all sit in its log, restored by WAL replay. S_i
// keeps a segmented block's 72 B of each and the record's start and the
// generation's read handle (16 B), where it held the block whole
// before.
func TestLoggedStoreBytesPerBlock(t *testing.T) {
	durableStoreBytesPerBlock(t, "in the log", func(blocks []*block.Block) map[string][]byte {
		return map[string][]byte{walFileName: walBlockRecords(encodeAll(blocks))}
	})
}

// durableStoreBytesPerBlock measures the heap a store recovered from
// the files files lays out holds per block, against an in-memory store
// of the same blocks: it must save at least 900 B a block and hold at
// most 128.
func durableStoreBytesPerBlock(t *testing.T, where string, files func([]*block.Block) map[string][]byte) {
	skipUnderRace(t)
	const n, ceiling, saved = 4096, 128, 900
	// Bodies of 1 KiB on synthetic headers (Δ of nine, a 64-byte
	// signature): recovery without a Ring reseals but does not verify.
	build := func() []*block.Block {
		blocks := syntheticBlocks(t, n)
		for i, b := range blocks {
			c := b.Clone()
			c.Header.Signature = bytes.Repeat([]byte{byte(i)}, 64)
			c.Body = bytes.Repeat([]byte{byte(i), 0xA5}, 512)
			if err := testParams().SealBlock(c); err != nil {
				t.Fatal(err)
			}
			blocks[i] = c
		}
		return blocks
	}
	dir := writeFiles(t, t.TempDir(), files(build()))
	mem := indexBytesPer(n, func() any {
		s := NewStore(1)
		for _, b := range build() {
			if err := s.Append(b); err != nil {
				t.Fatal(err)
			}
		}
		return s
	})
	var fb *FileBackend
	durable := indexBytesPer(n, func() any {
		var st *NodeState
		fb, st = openBackend(t, dir, RecoverOptions{Owner: 1, Params: testParams()})
		return st
	})
	defer fb.Close()
	st := fb.store
	if st.Len() != n || st.Latest().Body != nil {
		t.Fatalf("recovered %d of %d blocks, the newest with its body %v", st.Len(), n, st.Latest().Body != nil)
	}
	t.Logf("%.0f B per block in memory, %.0f B per block with the bodies %s", mem, durable, where)
	if mem-durable < saved {
		t.Fatalf("a block %s saves %.0f B of heap, want at least %d", where, mem-durable, saved)
	}
	if durable > ceiling {
		t.Fatalf("a durable S_i holds %.0f B per block %s, ceiling %d", durable, where, ceiling)
	}
}

// BenchmarkHotpathSegmentGet prices reading a segmented block back: the
// record's read (page cache warm), its CRC, the header decoded and
// hashed against the kept hash, and the fresh block. Gets cycle
// through a 64-block segment; it fails before the timer unless every
// block is read back from there.
func BenchmarkHotpathSegmentGet(b *testing.B) { benchmarkDurableGet(b, true) }

// BenchmarkHotpathLoggedGet is BenchmarkHotpathSegmentGet for blocks
// whose commit window has fsynced and no compaction has copied yet:
// each Get reads its record back from wal.log, where an in-memory store
// (and this one before it let such blocks go) hands out the block it
// holds.
func BenchmarkHotpathLoggedGet(b *testing.B) { benchmarkDurableGet(b, false) }

// benchmarkDurableGet times Gets cycling through 64 blocks a durable
// store appended through its journal, compacted into its segment first
// when segmented is set.
func benchmarkDurableGet(b *testing.B, segmented bool) {
	const n = 64
	chain := bodyChain(b, identity.Deterministic(1, 4), n)
	dir := b.TempDir()
	fb, err := OpenFileBackend(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer fb.Close()
	st, err := fb.Recover(RecoverOptions{Owner: 1, Params: testParams()})
	if err != nil {
		b.Fatal(err)
	}
	st.Attach(fb)
	for _, blk := range chain {
		if err := st.Store.Append(blk); err != nil {
			b.Fatal(err)
		}
	}
	if segmented {
		if err := fb.Compact(func() (*NodeState, error) { return st, nil }); err != nil {
			b.Fatal(err)
		}
	}
	st.Store.mu.RLock()
	inSeg, recorded := st.Store.segmentedLocked(), st.Store.recordedLocked()
	st.Store.mu.RUnlock()
	if want := map[bool]int{true: n}[segmented]; inSeg != want || recorded != n || st.Store.Latest().Body != nil {
		b.Fatalf("%d of %d blocks read back, %d of them from the segment, want %d: the Gets would not read them", recorded, n, inSeg, want)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Store.Get(uint32(i % n)); err != nil {
			b.Fatal(err)
		}
	}
}
