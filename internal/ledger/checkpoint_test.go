package ledger

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/identity"
)

// populatedState builds a node state with blocks, trust headers from a
// neighbor, digest-cache entries, and the given cap — a representative
// cut of everything checkpoint and segment must carry.
func populatedState(t testing.TB, trustCap int) *NodeState {
	t.Helper()
	st := NewNodeState(4, trustCap)
	key := identity.Deterministic(4, 4)
	for _, b := range chainFor(t, key, 4, nil) {
		if err := st.Store.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	nb := identity.Deterministic(9, 4)
	for _, b := range chainFor(t, nb, 3, nil) {
		st.Trust.Add(b.Header.Clone())
	}
	st.Cache.Update(9, digest.Sum([]byte("nine")))
	st.Cache.Update(2, digest.Sum([]byte("two")))
	return st
}

func stateOpts() RecoverOptions {
	return RecoverOptions{Owner: 4, Params: testParams()}
}

// segmentOf frames encs as segment records and returns them with the
// prefix a checkpoint records of them: every whole record, the newest
// block's header hash (zero when its record does not decode).
func segmentOf(encs [][]byte) ([]byte, segmentMark) {
	var seg []byte
	for _, e := range encs {
		seg = appendWALRecord(seg, walKindBlock, e)
	}
	return seg, markOf(seg)
}

// markOf is the prefix a checkpoint would record of seg's whole records.
func markOf(seg []byte) segmentMark {
	var m segmentMark
	var lastRec walRecord
	for off := 0; ; {
		rec, n, err := scanWALRecord(seg[off:])
		if err != nil {
			break
		}
		off += n
		m.records++
		m.size = int64(off)
		lastRec = rec
	}
	if b, err := block.Decode(lastRec.payload); err == nil && m.records > 0 {
		m.last = b.Header.Hash()
	}
	return m
}

// stateFiles is what FileBackend keeps of st besides the log: a
// checkpoint and a segment holding every block.
func stateFiles(st *NodeState) (ckpt, seg []byte) {
	var encs [][]byte
	for seq := 0; seq < st.Store.Len(); seq++ {
		b, _ := st.Store.Get(uint32(seq))
		encs = append(encs, block.Encode(b))
	}
	seg, mark := segmentOf(encs)
	return appendCheckpoint(nil, &checkpoint{st: st, seg: mark}), seg
}

// readStateFiles restores a state from a checkpoint and its segment.
func readStateFiles(ckpt, seg []byte, opts RecoverOptions) (*NodeState, error) {
	cp, err := decodeCheckpoint(ckpt, opts)
	if err != nil {
		return nil, err
	}
	if err := readSegment(bytes.NewReader(seg), cp, opts); err != nil {
		return nil, err
	}
	return cp.st, nil
}

// roundTrip writes st as checkpoint and segment and reads it back.
func roundTrip(t testing.TB, st *NodeState, opts RecoverOptions) *NodeState {
	t.Helper()
	ckpt, seg := stateFiles(st)
	got, err := readStateFiles(ckpt, seg, opts)
	if err != nil {
		t.Fatalf("reading checkpoint and segment: %v", err)
	}
	return got
}

func TestCheckpointRoundTrip(t *testing.T) {
	st := populatedState(t, 0)
	got := roundTrip(t, st, stateOpts())
	// Byte-identity of the v2 reference is the contract: blocks, H_i in
	// insertion order, A_i in node order, every seal intact.
	if !bytes.Equal(stateBytes(t, got), stateBytes(t, st)) {
		t.Fatal("restored state re-encodes differently")
	}
	if got.Digest() != st.Digest() {
		t.Fatal("restored state digests differently")
	}
	if got.Store.Len() != 4 || got.Trust.Len() != 3 || got.Cache.Len() != 2 {
		t.Fatalf("restored sizes: %d blocks, %d headers, %d entries",
			got.Store.Len(), got.Trust.Len(), got.Cache.Len())
	}
	// S_i holds only the newest restored block, sealed and without its
	// body; Get reads a block back into a fresh, header-sealed one.
	if b := got.Store.Latest(); !b.Sealed() || b.Body != nil {
		t.Fatal("restored block not fully sealed, or holding its body")
	}
	got.Store.mu.RLock()
	held := slices.IndexFunc(got.Store.blocks, func(b *block.Block) bool { return b != nil })
	got.Store.mu.RUnlock()
	if held != got.Store.Len()-1 {
		t.Fatalf("the restored S_i holds block %d; only the newest, %d, should stay", held, got.Store.Len()-1)
	}
	if b, _ := got.Store.Get(0); !b.Header.Sealed() || len(b.Body) == 0 {
		t.Fatal("a body read back lost its header seal or its body")
	}
	empty := NewNodeState(4, 0)
	if got := roundTrip(t, empty, stateOpts()); !bytes.Equal(stateBytes(t, got), stateBytes(t, empty)) {
		t.Fatal("empty state restored differently")
	}
}

// TestCheckpointTrustCap: the recorded cap restores by default; a
// positive RecoverOptions.TrustCap overrides it (redeployment wins) and
// is in force while H_i is restored.
func TestCheckpointTrustCap(t *testing.T) {
	st := populatedState(t, 5)
	got := roundTrip(t, st, stateOpts())
	if got.TrustCap != 5 || got.Trust.Cap() != 5 {
		t.Fatalf("recorded cap not adopted: %d/%d", got.TrustCap, got.Trust.Cap())
	}
	opts := stateOpts()
	opts.TrustCap = 2
	got = roundTrip(t, st, opts)
	if got.TrustCap != 2 || got.Trust.Cap() != 2 {
		t.Fatalf("override cap not applied: %d/%d", got.TrustCap, got.Trust.Cap())
	}
	if got.Trust.Len() != 2 {
		t.Fatalf("capped restore kept %d headers", got.Trust.Len())
	}

	// A capped store that has already evicted restores to the same chain
	// heads: keep adding past the cap on the original and on the restored
	// copy, and every ChildOf answer and the encoding must stay identical.
	// The shared digest sits in every header's Δ, so its earliest live
	// child moves with each eviction.
	shared := digest.Sum([]byte("referenced by all"))
	chain := chainFor(t, identity.Deterministic(9, 4), 14, []block.DigestRef{{Node: 7, Digest: shared}})
	orig := NewNodeState(4, 5)
	for _, b := range chain[:9] { // headers 0-3 already evicted
		orig.Trust.Add(b.Header.Clone())
	}
	restored := roundTrip(t, orig, stateOpts())
	probes := []digest.Digest{shared}
	for _, b := range chain {
		probes = append(probes, b.Header.Hash())
	}
	for i, b := range chain[9:] {
		orig.Trust.Add(b.Header.Clone())
		restored.Trust.Add(b.Header.Clone())
		for _, d := range probes {
			ho, oko := orig.Trust.ChildOf(d)
			hr, okr := restored.Trust.ChildOf(d)
			if oko != okr || (oko && ho.Hash() != hr.Hash()) {
				t.Fatalf("add %d: ChildOf(%s) differs after restore", i, d)
			}
		}
		if !bytes.Equal(stateBytes(t, orig), stateBytes(t, restored)) {
			t.Fatalf("add %d: restored store encodes differently", i)
		}
	}
	if h, ok := restored.Trust.ChildOf(shared); !ok || h.Seq != 9 {
		t.Fatalf("earliest live child of the shared digest: %v %v, want seq 9", h, ok)
	}

	// One more Add past a restored FIFO window evicts its oldest header,
	// exactly as it would have without the restart.
	capped := NewNodeState(4, 2)
	for _, b := range chain[:4] {
		capped.Trust.Add(b.Header.Clone()) // ends with headers 2,3
	}
	back := roundTrip(t, capped, stateOpts())
	back.Trust.Add(chain[4].Header.Clone())
	if back.Trust.Has(chain[2].Header.Hash()) || !back.Trust.Has(chain[3].Header.Hash()) {
		t.Fatal("restored FIFO evicts in the wrong order")
	}
}

// TestCheckpointRejectsCorruption: the CRC catches any flipped byte and
// every cut, the owner field a foreign checkpoint, the magic anything
// else.
func TestCheckpointRejectsCorruption(t *testing.T) {
	ckpt, seg := stateFiles(populatedState(t, 0))
	for _, i := range []int{8, 12, len(ckpt) / 2, len(ckpt) - 5, len(ckpt) - 1} {
		bad := bytes.Clone(ckpt)
		bad[i] ^= 0xFF
		if _, err := readStateFiles(bad, seg, stateOpts()); !errors.Is(err, ErrBadCheckpoint) {
			t.Fatalf("flip %d: %v", i, err)
		}
	}
	for _, cut := range []int{0, 7, 15, len(ckpt) / 2, len(ckpt) - 1} {
		if _, err := readStateFiles(ckpt[:cut], seg, stateOpts()); !errors.Is(err, ErrBadCheckpoint) {
			t.Fatalf("cut %d: %v", cut, err)
		}
	}
	if _, err := readStateFiles([]byte("not a checkpoint at all"), seg, stateOpts()); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("bad magic: %v", err)
	}
	opts := stateOpts()
	opts.Owner = 5
	if _, err := readStateFiles(ckpt, seg, opts); !errors.Is(err, ErrWrongOwner) {
		t.Fatalf("wrong owner: %v", err)
	}
}

// TestSegmentPrefix: recovery reads exactly the segment prefix the
// checkpoint records. Bytes past it — an append whose checkpoint never
// committed — are not read; a prefix that is torn, short, long, holds
// another record kind or ends in another block than the checkpoint
// names is refused.
func TestSegmentPrefix(t *testing.T) {
	st := populatedState(t, 0)
	ckpt, seg := stateFiles(st)
	want := stateBytes(t, st)
	uncommitted := appendWALRecord(bytes.Clone(seg), walKindBlock, block.Encode(chainFor(t, identity.Deterministic(4, 4), 5, nil)[4]))
	got, err := readStateFiles(ckpt, append(uncommitted, 1, 2, 3), stateOpts())
	if err != nil || !bytes.Equal(stateBytes(t, got), want) {
		t.Fatalf("segment with an uncommitted tail: %v", err)
	}

	mark := markOf(seg)
	withMark := func(m segmentMark) []byte { return appendCheckpoint(nil, &checkpoint{st: st, seg: m}) }
	other, _ := segmentOf([][]byte{block.Encode(chainFor(t, identity.Deterministic(5, 4), 1, nil)[0])})
	trustRec := appendWALRecord(nil, walKindTrust, appendWALTrust(nil, 0, &chainFor(t, identity.Deterministic(9, 4), 1, nil)[0].Header))
	for _, tc := range []struct {
		name      string
		ckpt, seg []byte
	}{
		{"torn inside the prefix", ckpt, seg[:len(seg)-3]},
		{"shorter than recorded", ckpt, seg[:mark.size-int64(len(seg))/4]},
		{"a record fewer than recorded", withMark(segmentMark{records: mark.records + 1, size: mark.size, last: mark.last}), seg},
		{"another newest block", withMark(segmentMark{records: mark.records, size: mark.size, last: digest.Sum([]byte("x"))}), seg},
		{"a record of another kind", withMark(segmentMark{records: mark.records + 1, size: mark.size + int64(len(trustRec)), last: mark.last}), append(bytes.Clone(seg), trustRec...)},
		{"another owner's block", withMark(markOf(other)), other},
	} {
		if _, err := readStateFiles(tc.ckpt, tc.seg, stateOpts()); err == nil {
			t.Errorf("%s: recovered", tc.name)
		} else if !errors.Is(err, ErrBadSegment) && !errors.Is(err, ErrWrongOwner) {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

// FuzzReadCheckpoint: arbitrary checkpoint bytes (CRC recomputed, so
// mutations reach the branch decoders) never panic, and whatever
// decodes is a fixpoint: encoded again and decoded again it encodes to
// the same bytes.
func FuzzReadCheckpoint(f *testing.F) {
	ckpt, _ := stateFiles(populatedState(f, 3))
	f.Add(ckpt)
	f.Add(ckpt[:len(ckpt)-2])
	f.Add(append(append([]byte(nil), checkpointMagic[:]...), 4, 0, 0, 0))
	opts := RecoverOptions{Owner: 4, Params: testParams()}
	f.Fuzz(func(t *testing.T, data []byte) {
		data = bytes.Clone(data)
		if len(data) >= 16 {
			binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.Checksum(data[:len(data)-4], walTable))
		}
		cp, err := decodeCheckpoint(data, opts)
		if err != nil {
			return
		}
		raw := appendCheckpoint(nil, cp)
		again, err := decodeCheckpoint(raw, opts)
		if err != nil {
			t.Fatalf("a decoded checkpoint does not decode once re-encoded: %v", err)
		}
		if !bytes.Equal(appendCheckpoint(nil, again), raw) {
			t.Fatal("re-encoding a decoded checkpoint is not a fixpoint")
		}
	})
}

// digestSpec is a node state as parts, so a test can build two that
// differ in exactly one of them.
type digestSpec struct {
	blocks   []*block.Block
	trust    []*block.Header
	nodes    []identity.NodeID
	entries  []digest.Digest
	trustCap int
	extra    int64 // insertions beyond the Adds
}

func (s digestSpec) clone() digestSpec {
	s.blocks = append([]*block.Block(nil), s.blocks...)
	s.trust = append([]*block.Header(nil), s.trust...)
	s.entries = append([]digest.Digest(nil), s.entries...)
	return s
}

// build lays the parts out as a state; blocks go straight into S_i, so
// a mutated origin or sequence number stays what it is.
func (s digestSpec) build() *NodeState {
	st := NewNodeState(4, s.trustCap)
	st.Store.blocks = append(st.Store.blocks, s.blocks...)
	for _, h := range s.trust {
		st.Trust.Add(h)
	}
	st.Trust.setInsertions(st.Trust.Insertions() + s.extra)
	for i, n := range s.nodes {
		st.Cache.Update(n, s.entries[i])
	}
	return st
}

// TestStateDigestMatchesV2 is the differential proof that the state
// digest covers the state the v2 stream did. Over seeded states and
// pairs that differ in one thing — a body byte (as a Ring-less recovery
// of a flipped segment byte leaves it: header intact, body root of the
// new body), every header field of an S_i block, an H_i signature byte,
// an A_i entry, the trust cap, the insertion count, a block or header
// fewer — NodeState.Digest and SHA-256 of the v2 stream must agree on
// equal/unequal, and both must see every difference.
func TestStateDigestMatchesV2(t *testing.T) {
	p := testParams()
	v2 := func(st *NodeState) digest.Digest { return digest.Sum(stateBytes(t, st)) }
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		base := digestSpec{
			blocks:   proofChain(t, identity.Deterministic(4, 4), 1+rng.Intn(6), rng, true),
			trust:    headersOf(proofChain(t, identity.Deterministic(9, 4), 1+rng.Intn(4), rng, true)),
			trustCap: rng.Intn(2) * 8,
			extra:    int64(rng.Intn(3)),
		}
		for j := 0; j < 1+rng.Intn(4); j++ {
			base.nodes = append(base.nodes, identity.NodeID(10+j))
			base.entries = append(base.entries, randomDigest(rng))
		}
		k := rng.Intn(len(base.blocks))
		ofBlock := func(name string, mut func(b *block.Block)) (string, func(s *digestSpec)) {
			return name, func(s *digestSpec) {
				c := s.blocks[k].Clone()
				mut(c)
				if err := p.SealBlock(c); err != nil {
					t.Fatal(err)
				}
				s.blocks[k] = c
			}
		}
		type mutation struct {
			name string
			mut  func(s *digestSpec)
		}
		muts := []mutation{{"nothing", func(*digestSpec) {}}}
		add := func(name string, mut func(s *digestSpec)) { muts = append(muts, mutation{name, mut}) }
		add(ofBlock("body byte", func(b *block.Block) { b.Body[rng.Intn(len(b.Body))] ^= 1 }))
		add(ofBlock("version", func(b *block.Block) { b.Header.Version++ }))
		add(ofBlock("time", func(b *block.Block) { b.Header.Time ^= 1 }))
		add(ofBlock("origin", func(b *block.Block) { b.Header.Origin++ }))
		add(ofBlock("seq", func(b *block.Block) { b.Header.Seq += 7 }))
		add(ofBlock("root", func(b *block.Block) { b.Header.Root[rng.Intn(digest.Size)] ^= 1 }))
		add(ofBlock("Δ node", func(b *block.Block) { b.Header.Digests[1].Node++ }))
		add(ofBlock("Δ digest", func(b *block.Block) { b.Header.Digests[0].Digest[rng.Intn(digest.Size)] ^= 1 }))
		add(ofBlock("nonce", func(b *block.Block) { b.Header.Nonce ^= 1 }))
		add(ofBlock("signature", func(b *block.Block) { b.Header.Signature[rng.Intn(len(b.Header.Signature))] ^= 1 }))
		add("block dropped", func(s *digestSpec) { s.blocks = s.blocks[:len(s.blocks)-1] })
		add("H_i signature byte", func(s *digestSpec) {
			i := rng.Intn(len(s.trust))
			h := s.trust[i].Clone()
			h.Signature[rng.Intn(len(h.Signature))] ^= 1
			s.trust[i] = h
		})
		add("H_i header dropped", func(s *digestSpec) { s.trust = s.trust[1:] })
		add("A_i entry", func(s *digestSpec) { s.entries[rng.Intn(len(s.entries))][rng.Intn(digest.Size)] ^= 1 })
		add("A_i entry added", func(s *digestSpec) {
			s.nodes = append(append([]identity.NodeID(nil), s.nodes...), 99)
			s.entries = append(s.entries, randomDigest(rng))
		})
		add("trust cap", func(s *digestSpec) { s.trustCap += 16 })
		add("insertion count", func(s *digestSpec) { s.extra++ })
		for _, m := range muts {
			want := base.build()
			mutated := base.clone()
			m.mut(&mutated)
			got := mutated.build()
			same, sameV2 := got.Digest() == want.Digest(), v2(got) == v2(want)
			if same != sameV2 {
				t.Errorf("seed %d, %s: digest equal %v, v2 stream digest equal %v", seed, m.name, same, sameV2)
			}
			if same != (m.name == "nothing") {
				t.Errorf("seed %d, %s: digest equal %v", seed, m.name, same)
			}
		}

		// The body flip as recovery really leaves it: a segment byte inside
		// a body flipped, the record re-framed, read without a Ring.
		st := base.build()
		ckpt, seg := stateFiles(st)
		b := st.Store.blocks[k]
		off := 0
		for _, prev := range st.Store.blocks[:k] {
			off += walHeaderLen + prev.WireSize() + walCRCLen
		}
		seg[off+walHeaderLen+b.WireSize()-1-rng.Intn(len(b.Body))] ^= 1
		reframeWAL(seg)
		flipped, err := readStateFiles(ckpt, seg, RecoverOptions{Owner: 4, Params: p})
		if err != nil {
			t.Fatalf("seed %d: Ring-less recovery of a flipped body byte: %v", seed, err)
		}
		if flipped.Digest() == st.Digest() || v2(flipped) == v2(st) {
			t.Errorf("seed %d: a recovered body flip is invisible (digest %v, v2 %v)", seed,
				flipped.Digest() == st.Digest(), v2(flipped) == v2(st))
		}
	}
}

func headersOf(blocks []*block.Block) []*block.Header {
	out := make([]*block.Header, len(blocks))
	for i, b := range blocks {
		out[i] = &b.Header
	}
	return out
}

// byteCounter counts what the files of a log are written, by file name:
// bytes, write calls and fsyncs.
type byteCounter struct {
	mu            sync.Mutex
	bytes         map[string]int64
	writes, syncs map[string]int
}

func newByteCounter() *byteCounter {
	c := &byteCounter{}
	c.take()
	return c
}

func (c *byteCounter) wrap(f WALFile) WALFile {
	name := ""
	if of, ok := f.(*os.File); ok {
		name = filepath.Base(of.Name())
	}
	return countedFile{f, c, name}
}

// take returns the bytes written so far and starts every count over.
func (c *byteCounter) take() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.bytes
	c.bytes, c.writes, c.syncs = map[string]int64{}, map[string]int{}, map[string]int{}
	return out
}

// calls returns the write calls and fsyncs the named file took so far,
// and starts every count over.
func (c *byteCounter) calls(name string) (writes, syncs int) {
	c.mu.Lock()
	writes, syncs = c.writes[name], c.syncs[name]
	c.mu.Unlock()
	c.take()
	return writes, syncs
}

type countedFile struct {
	WALFile
	c    *byteCounter
	name string
}

func (f countedFile) Write(p []byte) (int, error) {
	n, err := f.WALFile.Write(p)
	f.c.mu.Lock()
	f.c.bytes[f.name] += int64(n)
	f.c.writes[f.name]++
	f.c.mu.Unlock()
	return n, err
}

func (f countedFile) Sync() error {
	f.c.mu.Lock()
	f.c.syncs[f.name]++
	f.c.mu.Unlock()
	return f.WALFile.Sync()
}

// TestCompactionWritesEachBlockOnce is the write-amplification gate:
// one owner goes through four compactions of 256 blocks each, then a
// Silence with nothing new and one with a new A_i entry only. Every
// compaction must write exactly its 256 block records to the segment
// plus one checkpoint — the same bytes each time, however long the
// owner's history — the first Silence nothing, and the second its
// checkpoint alone. (A whole-state snapshot wrote 256, 512, 768 and
// 1024 blocks, then 1024 again.)
func TestCompactionWritesEachBlockOnce(t *testing.T) {
	const per = 256
	counter := newByteCounter()
	base := t.TempDir()
	l, err := OpenLog(base, WithWALFile(counter.wrap))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	dir := filepath.Join(base, "node-1")
	fb, err := l.OpenBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	opts := RecoverOptions{Owner: 1, Params: testParams(), TrustCap: 4}
	st, err := fb.Recover(opts)
	if err != nil {
		t.Fatal(err)
	}
	st.Attach(fb)
	chain := chainFor(t, identity.Deterministic(1, 4), 4*per, nil)
	foreign := chainFor(t, identity.Deterministic(9, 4), 8, nil)
	gather := func(identity.NodeID) (*NodeState, error) { return st, nil }
	checkpointSize := func() int64 {
		info, err := os.Stat(filepath.Join(dir, checkpointFileName))
		if err != nil {
			t.Fatal(err)
		}
		return info.Size()
	}
	var first int64
	for round := 0; round < 4; round++ {
		batch := chain[round*per : (round+1)*per]
		var records int64
		for i, b := range batch {
			if err := st.Store.Append(b); err != nil {
				t.Fatal(err)
			}
			records += int64(len(appendWALRecord(nil, walKindBlock, block.Encode(b))))
			if i%64 == 0 {
				st.Trust.Add(foreign[(round*4+i/64)%len(foreign)].Header.Clone())
				st.Cache.Update(9, digest.Sum([]byte{byte(round), byte(i)}))
			}
		}
		if err := l.Commit(); err != nil {
			t.Fatal(err)
		}
		counter.take()
		if err := l.Compact(gather); err != nil {
			t.Fatal(err)
		}
		w := counter.take()
		if w[segmentFileName] != records || w[checkpointTmpName] != checkpointSize() || w[walFileName] != 0 {
			t.Fatalf("compaction %d wrote %v: want %d segment bytes (the %d new block records), one %d-byte checkpoint, no WAL",
				round, w, records, per, checkpointSize())
		}
		total := w[segmentFileName] + w[checkpointTmpName]
		if round == 0 {
			first = total
		} else if total != first {
			t.Fatalf("compaction %d wrote %d bytes, the first %d: the cost grows with the history", round, total, first)
		}
	}
	// Silence: nothing logged since the last compaction.
	silence := func() error { return fb.Compact(func() (*NodeState, error) { return st, nil }) }
	if err := silence(); err != nil {
		t.Fatal(err)
	}
	if w := counter.take(); len(w) != 0 {
		t.Fatalf("Silence with nothing new wrote %v: want nothing", w)
	}
	// Silence after an A_i update: no block is new, the checkpoint is.
	st.Cache.Update(9, digest.Sum([]byte("after")))
	if err := silence(); err != nil {
		t.Fatal(err)
	}
	want := stateBytes(t, st) // its bodies are read back through the backend
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	if w := counter.take(); w[segmentFileName] != 0 || w[checkpointTmpName] != checkpointSize() {
		t.Fatalf("Silence with a new A_i entry wrote %v: want no segment bytes and one %d-byte checkpoint", w, checkpointSize())
	}
	fb, err = l.OpenBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	back, err := fb.Recover(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stateBytes(t, back), want) {
		t.Fatal("the owner came back changed")
	}
	if rep := fb.RecoveryReport(); rep.SegmentBlocks != 4*per || rep.WALBytes != 0 {
		t.Fatalf("recovery read %+v, want every block from the segment and nothing from the log", rep)
	}
}
