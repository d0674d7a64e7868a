package ledger

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
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

// TestSegmentedBlocksReadBack: once a committed checkpoint covers its
// blocks, S_i holds none of them but the newest, and that one without
// its body — after the compaction that committed them and after a
// restart alike — and Get returns each block byte-identical to the one
// sealed, Headers each header, the state digest and BodyBytes
// unmoved.
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
		for seq := 0; seq < st.Store.Len(); seq++ {
			st.Store.mu.RLock()
			b := st.Store.blocks[seq]
			st.Store.mu.RUnlock()
			header, body := b != nil, b != nil && b.Body != nil
			if newest := seq == st.Store.Len()-1; header != (seq >= segmented || newest) || body != (seq >= segmented) {
				t.Fatalf("%s: block %d: header held %v, body held %v; %d of %d blocks segmented", stage, seq, header, body, segmented, st.Store.Len())
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
	if err := fb.Compact(func() (*NodeState, error) { return st, nil }); err != nil {
		t.Fatal(err)
	}
	check("after compaction", st, 12)
	if st.Digest() != want || st.Store.BodyBytes() != wantBytes {
		t.Fatal("letting the bodies go moved the state digest or BodyBytes")
	}
	// Blocks sealed since keep their bodies until the next commit.
	for _, b := range chain[12:] {
		if err := st.Store.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	check("after appending", st, 12)
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
// has none, so that S_i lets go of no body from then on — its later
// commits included — and every block it holds still reads back as
// sealed.
func TestSegmentedAfterShadowCommit(t *testing.T) {
	chain := bodyChain(t, identity.Deterministic(1, 4), 8)
	fb, st := openBackend(t, t.TempDir(), RecoverOptions{Owner: 1, Params: testParams()})
	defer fb.Close()
	shadow := NewNodeState(1, 0)
	for _, b := range chain[:6] {
		if err := shadow.Store.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := fb.Compact(func() (*NodeState, error) { return shadow, nil }); err != nil {
		t.Fatal(err)
	}
	for _, b := range chain {
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

// TestSegmentedGetConcurrent: readers Get blocks — the ones a store
// holds and the ones it lets go of — while the owner appends and
// compacts, each compaction swapping bodies out under them. Every read
// must be the block sealed.
func TestSegmentedGetConcurrent(t *testing.T) {
	const rounds, per = 6, 16
	chain := bodyChain(t, identity.Deterministic(1, 4), rounds*per)
	encs := encodeAll(chain)
	fb, st := openBackend(t, t.TempDir(), RecoverOptions{Owner: 1, Params: testParams()})
	defer fb.Close()
	var published atomic.Int64
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := published.Load()
				if n == 0 {
					continue
				}
				seq := uint32(rng.Int63n(n))
				b, err := st.Store.Get(seq)
				if err != nil {
					t.Errorf("Get(%d): %v", seq, err)
					return
				}
				if !bytes.Equal(block.Encode(b), encs[seq]) {
					t.Errorf("block %d reads back as another block", seq)
					return
				}
			}
		}(int64(r))
	}
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
	close(stop)
	readers.Wait()
}

// TestSegmentedGetFaults: damage to a committed record is never served
// as a block or a header. A flipped body byte fails the record's CRC; a
// segment cut below a recorded offset ends inside the record; a record
// moved to another block's offset is a valid record of the wrong block
// — each is ErrBadSegment from Get, and from the responder query whose
// answer is that block (OldestContaining), whether its index was built
// before the damage or reads every header back after it, while a query
// an older, intact block answers still answers. A body byte
// flipped with the CRC recomputed passes (the header is the stored one)
// and fails validation against the header's Root instead, as any
// substituted body does. And a closed backend reads nothing back: Get,
// the responder query and Headers fail with an I/O error, not a verdict
// on the segment, while what S_i keeps — the newest header, the state
// digest — outlives it.
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
		damage func(seg []byte) []byte
		bad    bool // ErrBadSegment from Get; otherwise Validate fails
	}{
		{"flipped body byte", func(seg []byte) []byte {
			seg[4*recLen-walCRCLen-1] ^= 0x01
			return seg
		}, true},
		{"truncated below a recorded offset", func(seg []byte) []byte { return seg[:3*recLen+recLen/2] }, true},
		{"another block's record", func(seg []byte) []byte {
			copy(seg[3*recLen:4*recLen], seg[2*recLen:3*recLen])
			return seg
		}, true},
		{"flipped body byte, CRC recomputed", func(seg []byte) []byte {
			seg[4*recLen-walCRCLen-1] ^= 0x01
			reframeWAL(seg)
			return seg
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, indexed := range []bool{false, true} {
				t.Run(fmt.Sprintf("index built before %v", indexed), func(t *testing.T) {
					dir, s := segmentedStore(t, chain)
					if indexed {
						if h, ok := oldestHeader(s, child); !ok || h.Hash() != chain[3].Header.Hash() {
							t.Fatal("the intact segment answers another block")
						}
					}
					path := filepath.Join(dir, segmentFileName)
					seg, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, tc.damage(seg), 0o644); err != nil {
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
	t.Run("closed backend", func(t *testing.T) {
		dir := t.TempDir()
		fb, st := openBackend(t, dir, RecoverOptions{Owner: 1, Params: testParams()})
		for _, b := range chain {
			if err := st.Store.Append(b); err != nil {
				t.Fatal(err)
			}
		}
		if err := fb.Compact(func() (*NodeState, error) { return st, nil }); err != nil {
			t.Fatal(err)
		}
		want := st.Digest()
		if err := fb.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Store.Get(2); err == nil || errors.Is(err, ErrBadSegment) {
			t.Fatalf("Get after Close: %v; want an I/O error, not a verdict on the segment", err)
		}
		if _, err := st.Store.OldestContaining(child); err == nil || errors.Is(err, ErrBadSegment) || errors.Is(err, ErrNotFound) {
			t.Fatalf("responder query after Close: %v; want an I/O error, not a verdict on the segment", err)
		}
		if _, err := st.Store.Headers(); err == nil || errors.Is(err, ErrBadSegment) {
			t.Fatalf("Headers after Close: %v; want an I/O error, not a verdict on the segment", err)
		}
		if b := st.Store.Latest(); b == nil || b.Header.Hash() != chain[len(chain)-1].Header.Hash() {
			t.Fatal("the newest header went with the backend")
		}
		if st.Digest() != want {
			t.Fatal("the state digest moved with the backend's close")
		}
	})
}

// FuzzSegmentRead writes hostile bytes over the record of block k in a
// segment a store reads its blocks from — re-framed with a valid CRC
// when reframe is set, so they reach the record's header and length
// checks. Get must return the block asked for, or ErrBadSegment: a
// block whose header is the stored one, with the sealed body or one
// that fails validation against that header's Root. The responder
// query for every digest the chain references — its index built
// before the damage when k's top bit is set, after it otherwise — must
// answer the oldest block holding it, or ErrBadSegment. Never a panic,
// never another block's header.
func FuzzSegmentRead(f *testing.F) {
	key := identity.Deterministic(1, 4)
	ring := identity.NewRing()
	if err := ring.Register(key.ID, key.Public); err != nil {
		f.Fatal(err)
	}
	chain := proofChain(f, key, 4, rand.New(rand.NewSource(1)), true)
	st := NewNodeState(1, 0)
	for _, b := range chain {
		if err := st.Store.Append(b); err != nil {
			f.Fatal(err)
		}
	}
	// oldest maps each referenced digest to the block that answers it.
	oldest := map[digest.Digest]*block.Block{}
	for _, b := range chain {
		for _, r := range b.Header.Digests {
			if _, ok := oldest[r.Digest]; !ok && !r.Digest.IsZero() {
				oldest[r.Digest] = b
			}
		}
	}
	ckpt, seg := stateFiles(st)
	recs := walBlockRecords(encodeAll(chain[1:2]))
	// Block 1's own record with its Time field changed: a record of the
	// right length and, re-framed, a valid CRC, whose header is not the
	// stored one.
	retimed := bytes.Clone(recs)
	retimed[walHeaderLen+4] ^= 0x01
	f.Add(uint8(1), false, recs)
	f.Add(uint8(2), true, recs)
	f.Add(uint8(0x82), true, recs)
	f.Add(uint8(1), true, retimed)
	f.Add(uint8(0x81), true, retimed)
	f.Add(uint8(3), true, appendWALRecord(nil, walKindBlock, []byte("not a block")))
	f.Add(uint8(0), false, []byte{walKindBlock, 0xff, 0xff, 0xff, 0xff})
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
		for d, want := range oldest {
			v, err := got.Store.OldestContaining(d)
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
		b, err := got.Store.Get(seq)
		if err != nil {
			if !errors.Is(err, ErrBadSegment) {
				t.Fatalf("a hostile record read as %v, not ErrBadSegment", err)
			}
			return
		}
		want := chain[seq]
		if b.Header.Hash() != want.Header.Hash() {
			t.Fatal("Get returned another block's header")
		}
		if !bytes.Equal(b.Body, want.Body) && opts.Params.Validate(b, ring) == nil {
			t.Fatal("Get returned a substituted body that validates")
		}
	})
}

// TestDurableStoreBytesPerBlock is the heap ceiling of a durable S_i: a
// recovered store whose 1 KiB-body blocks all sit in its segment,
// against an in-memory store of the same blocks, measured side by side.
// The durable one must hold at least 900 B a block less — the block it
// lets go, less what it keeps — and stay under its ceiling: a header
// hash, a body root and a record end (72 B) and a log slot (8 B) per
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

// block, where it held the whole header (~660 B) before.
func TestDurableStoreBytesPerBlock(t *testing.T) {
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
	dir := t.TempDir()
	{
		st := NewNodeState(1, 0)
		for _, b := range build() {
			if err := st.Store.Append(b); err != nil {
				t.Fatal(err)
			}
		}
		ckpt, seg := stateFiles(st)
		writeFiles(t, dir, map[string][]byte{checkpointFileName: ckpt, segmentFileName: seg})
	}
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
	t.Logf("%.0f B per block in memory, %.0f B per block with the bodies in the segment", mem, durable)
	if mem-durable < saved {
		t.Fatalf("a segmented block saves %.0f B of heap, want at least %d", mem-durable, saved)
	}
	if durable > ceiling {
		t.Fatalf("a durable S_i holds %.0f B per block, ceiling %d", durable, ceiling)
	}
}

// BenchmarkHotpathSegmentGet prices reading a segmented block back: the
// record's read (page cache warm), its CRC, the header decoded and
// hashed against the kept hash, and the fresh block. Gets cycle
// through a 64-block segment; it fails before the timer unless every
// block is read back from there.
func BenchmarkHotpathSegmentGet(b *testing.B) {
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
	if err := fb.Compact(func() (*NodeState, error) { return st, nil }); err != nil {
		b.Fatal(err)
	}
	st.Store.mu.RLock()
	segmented := st.Store.segmentedLocked()
	st.Store.mu.RUnlock()
	if segmented != n || st.Store.Latest().Body != nil {
		b.Fatalf("%d of %d blocks segmented: the Gets would not read the segment", segmented, n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Store.Get(uint32(i % n)); err != nil {
			b.Fatal(err)
		}
	}
}
