package ledger

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"testing"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/identity"
)

// walState builds an empty state for owner 1 with the test params, the
// starting point every replay test applies records to.
func walState() *NodeState { return NewNodeState(1, 0) }

func walOpts() RecoverOptions {
	return RecoverOptions{Owner: 1, Params: testParams()}
}

// TestWALRecordGolden pins the record framing byte for byte: kind,
// little-endian length, payload, CRC-32C over all three. A layout
// change breaks every WAL already on disk, so this must fail loudly.
func TestWALRecordGolden(t *testing.T) {
	rec := appendWALRecord(nil, walKindForget, []byte{7, 0, 0, 0})
	want := []byte{
		4,          // kind: forget
		4, 0, 0, 0, // length: 4 LE
		7, 0, 0, 0, // payload: node 7 LE
		0x37, 0x90, 0x37, 0x5d, // CRC-32C LE over the 9 bytes above
	}
	if !bytes.Equal(rec, want) {
		t.Fatalf("record = %#v, want %#v", rec, want)
	}
	got, n, err := scanWALRecord(rec)
	if err != nil || n != len(rec) {
		t.Fatalf("scan: n=%d err=%v", n, err)
	}
	if got.kind != walKindForget || !bytes.Equal(got.payload, []byte{7, 0, 0, 0}) {
		t.Fatalf("decoded %d %v", got.kind, got.payload)
	}
}

func TestWALScanEdges(t *testing.T) {
	rec := appendWALRecord(nil, walKindDigest, appendWALDigest(nil, 3, digest.Sum([]byte("d"))))
	if _, _, err := scanWALRecord(nil); err != io.EOF {
		t.Fatalf("empty: %v", err)
	}
	// Every strict prefix of a record is a clean torn tail.
	for cut := 1; cut < len(rec); cut++ {
		if _, _, err := scanWALRecord(rec[:cut]); err != io.ErrUnexpectedEOF {
			t.Fatalf("cut %d: %v", cut, err)
		}
	}
	// Any single flipped byte must trip the CRC (or, in the length
	// field, the size bound or a short read).
	for i := range rec {
		bad := append([]byte(nil), rec...)
		bad[i] ^= 0xFF
		if _, _, err := scanWALRecord(bad); err == nil {
			t.Fatalf("flip %d: corrupt record accepted", i)
		}
	}
	// Oversized length is corruption, not a torn tail.
	huge := []byte{1, 0xFF, 0xFF, 0xFF, 0xFF}
	if _, _, err := scanWALRecord(huge); !errors.Is(err, ErrBadWALRecord) {
		t.Fatalf("oversized: %v", err)
	}
}

func TestWALReplayAllKinds(t *testing.T) {
	key := identity.Deterministic(1, 1)
	blocks := chainFor(t, key, 2, nil)
	nb := chainFor(t, identity.Deterministic(9, 1), 1, nil)[0]
	d := digest.Sum([]byte("latest"))

	var log []byte
	for _, b := range blocks {
		log = appendWALRecord(log, walKindBlock, block.Encode(b))
	}
	log = appendWALRecord(log, walKindTrust, appendWALTrust(nil, 0, &nb.Header))
	log = appendWALRecord(log, walKindDigest, appendWALDigest(nil, 9, d))
	log = appendWALRecord(log, walKindDigest, appendWALDigest(nil, 8, d))
	log = appendWALRecord(log, walKindForget, []byte{8, 0, 0, 0})

	st := walState()
	stats, err := replayWAL(st, log, walOpts(), true, nil)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if stats.torn || stats.blocks != 2 || stats.valid != len(log) {
		t.Fatalf("stats = %+v", stats)
	}
	if st.Store.Len() != 2 {
		t.Fatalf("store has %d blocks", st.Store.Len())
	}
	got, _ := st.Store.Get(1)
	if !got.Sealed() || got.Header.Hash() != blocks[1].Header.Hash() {
		t.Fatal("replayed block not sealed or wrong")
	}
	if !st.Trust.Has(nb.Header.Hash()) {
		t.Fatal("trust header lost")
	}
	if gd, ok := st.Cache.Get(9); !ok || gd != d {
		t.Fatal("digest entry lost")
	}
	if _, ok := st.Cache.Get(8); ok {
		t.Fatal("forgotten neighbor resurrected")
	}
}

// TestWALReplayTornTail checks the crash-mid-write path: the intact
// prefix applies, the tail is silently discarded, stats report it.
func TestWALReplayTornTail(t *testing.T) {
	key := identity.Deterministic(1, 1)
	blocks := chainFor(t, key, 2, nil)
	var log []byte
	log = appendWALRecord(log, walKindBlock, block.Encode(blocks[0]))
	prefix := len(log)
	log = appendWALRecord(log, walKindBlock, block.Encode(blocks[1]))

	for _, cut := range []int{prefix + 1, prefix + walHeaderLen, len(log) - 1} {
		st := walState()
		stats, err := replayWAL(st, log[:cut], walOpts(), true, nil)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if !stats.torn || stats.valid != prefix || stats.blocks != 1 {
			t.Fatalf("cut %d: stats = %+v", cut, stats)
		}
		if st.Store.Len() != 1 {
			t.Fatalf("cut %d: store has %d blocks", cut, st.Store.Len())
		}
	}
	// A corrupt (not just short) tail record is tolerated the same way.
	bad := append([]byte(nil), log...)
	bad[len(bad)-1] ^= 0xFF
	st := walState()
	stats, err := replayWAL(st, bad, walOpts(), true, nil)
	if err != nil || !stats.torn || st.Store.Len() != 1 {
		t.Fatalf("corrupt tail: stats=%+v err=%v len=%d", stats, err, st.Store.Len())
	}
}

// TestWALReplayStructuralViolations: damage that cannot come from a
// torn write fails recovery instead of truncating it.
func TestWALReplayStructuralViolations(t *testing.T) {
	key := identity.Deterministic(1, 1)
	blocks := chainFor(t, key, 2, nil)
	foreign := chainFor(t, identity.Deterministic(2, 1), 1, nil)[0]

	wrongOwner := appendWALRecord(nil, walKindBlock, block.Encode(foreign))
	if _, err := replayWAL(walState(), wrongOwner, walOpts(), true, nil); !errors.Is(err, ErrWrongOwner) {
		t.Fatalf("wrong owner: %v", err)
	}

	gap := appendWALRecord(nil, walKindBlock, block.Encode(blocks[1]))
	if _, err := replayWAL(walState(), gap, walOpts(), true, nil); !errors.Is(err, ErrBadWALRecord) {
		t.Fatalf("seq gap: %v", err)
	}

	unknown := appendWALRecord(nil, 99, nil)
	if _, err := replayWAL(walState(), unknown, walOpts(), true, nil); !errors.Is(err, ErrBadWALRecord) {
		t.Fatalf("unknown kind: %v", err)
	}

	shortDigest := appendWALRecord(nil, walKindDigest, []byte{1, 2, 3})
	if _, err := replayWAL(walState(), shortDigest, walOpts(), true, nil); !errors.Is(err, ErrBadWALRecord) {
		t.Fatalf("short digest: %v", err)
	}
}

// TestWALReplayIdempotent: a record set replayed over state that
// already contains a prefix (the snapshot-overlap case rotation-based
// compaction produces) applies cleanly and changes nothing twice.
func TestWALReplayIdempotent(t *testing.T) {
	key := identity.Deterministic(1, 1)
	blocks := chainFor(t, key, 3, nil)
	var log []byte
	for _, b := range blocks {
		log = appendWALRecord(log, walKindBlock, block.Encode(b))
	}
	st := walState()
	for _, b := range blocks[:2] { // "snapshot" already holds two
		if err := st.Store.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := replayWAL(st, log, walOpts(), true, nil)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if stats.blocks != 1 || st.Store.Len() != 3 {
		t.Fatalf("overlap replay: stats=%+v len=%d", stats, st.Store.Len())
	}
}

// TestWALReplayVerifiesWithRing: with a Ring, a forged block that
// decodes fine but fails PoW/signature checks fails recovery.
func TestWALReplayVerifiesWithRing(t *testing.T) {
	key := identity.Deterministic(1, 1)
	b := chainFor(t, key, 1, nil)[0].Clone()
	b.Body[0] ^= 0xFF // body no longer matches the signed root
	log := appendWALRecord(nil, walKindBlock, block.Encode(b))
	ring := identity.NewRing()
	if err := ring.Register(key.ID, key.Public); err != nil {
		t.Fatal(err)
	}
	opts := walOpts()
	opts.Ring = ring
	if _, err := replayWAL(walState(), log, opts, true, nil); err == nil {
		t.Fatal("forged block accepted with Ring set")
	}
}

// FuzzWALReplay: arbitrary bytes must never panic and never corrupt
// the state invariants — either replay succeeds with a consistent
// store, or it errors. Read as a shared log, they must never carry a
// record across owners: what an owner replays from them is what the
// single-owner rules make of its own records alone.
func FuzzWALReplay(f *testing.F) {
	key := identity.Deterministic(1, 1)
	p := testParams()
	b, err := p.Build(key, 0, 0, []byte("fuzz"), []block.DigestRef{{Node: 1}})
	if err != nil {
		f.Fatal(err)
	}
	var good []byte
	good = appendWALRecord(good, walKindBlock, block.Encode(b))
	good = appendWALRecord(good, walKindDigest, appendWALDigest(nil, 9, digest.Sum([]byte("x"))))
	good = appendWALRecord(good, walKindForget, []byte{9, 0, 0, 0})
	f.Add(good)
	f.Add(good[:len(good)-3])
	f.Add([]byte{walKindBlock, 0xFF, 0xFF, 0xFF, 0xFF})
	// A batched commit window: consecutive block records interleaved
	// with lazy-tier records, exactly as SyncBatch stages them between
	// two fsyncs.
	b1, err := p.Build(key, 1, 1, []byte("fuzz2"), []block.DigestRef{{Node: 1, Digest: b.Header.Hash()}})
	if err != nil {
		f.Fatal(err)
	}
	var window []byte
	window = appendWALRecord(window, walKindBlock, block.Encode(b))
	window = appendWALRecord(window, walKindDigest, appendWALDigest(nil, 7, digest.Sum([]byte("w"))))
	window = appendWALRecord(window, walKindBlock, block.Encode(b1))
	window = appendWALRecord(window, walKindTrust, appendWALTrust(nil, 0, &b1.Header))
	f.Add(window)
	// Torn mid-window tails: the crash landed between the stage and the
	// fsync, cutting inside the second block record and inside the
	// trailing trust record.
	f.Add(window[:len(window)/2])
	f.Add(window[:len(window)-5])
	// A shared log: two owners' blocks and owner-tagged lazy records
	// interleaved, whole and torn, and a tag too short to hold an owner.
	key2 := identity.Deterministic(2, 1)
	b2, err := p.Build(key2, 0, 0, []byte("other"), []block.DigestRef{{Node: 2}})
	if err != nil {
		f.Fatal(err)
	}
	tag := func(owner byte, payload []byte) []byte { return append([]byte{owner, 0, 0, 0}, payload...) }
	var two []byte
	two = appendWALRecord(two, walKindBlock, block.Encode(b))
	two = appendWALRecord(two, walKindDigest|walOwnerTag, tag(2, appendWALDigest(nil, 7, digest.Sum([]byte("2")))))
	two = appendWALRecord(two, walKindBlock, block.Encode(b2))
	two = appendWALRecord(two, walKindTrust|walOwnerTag, tag(1, appendWALTrust(nil, 0, &b2.Header)))
	two = appendWALRecord(two, walKindDigest|walOwnerTag, tag(1, appendWALDigest(nil, 7, digest.Sum([]byte("1")))))
	two = appendWALRecord(two, walKindForget|walOwnerTag, tag(2, []byte{7, 0, 0, 0}))
	two = appendWALRecord(two, walKindBlock, block.Encode(b1))
	f.Add(two)
	f.Add(two[:len(two)-40])
	f.Add(appendWALRecord(two, walKindForget|walOwnerTag, []byte{1, 0}))
	f.Fuzz(func(t *testing.T, data []byte) {
		st := NewNodeState(1, 0)
		stats, err := replayWAL(st, data, RecoverOptions{Owner: 1, Params: p}, true, nil)
		if err == nil {
			if stats.blocks != st.Store.Len() {
				t.Fatalf("blocks=%d store=%d", stats.blocks, st.Store.Len())
			}
			if stats.valid > len(data) {
				t.Fatalf("valid=%d > input %d", stats.valid, len(data))
			}
		}
		for _, o := range []identity.NodeID{1, 2} {
			got := NewNodeState(o, 0)
			stats, err := replayWAL(got, data, RecoverOptions{Owner: o, Params: p, shared: true}, true, nil)
			if err != nil {
				continue
			}
			// The intact prefix named an owner on every record, or the
			// replay would have failed: o's alone, tags off, must replay
			// to the same state under the single-owner rules.
			var own []byte
			for off := 0; off < stats.valid; {
				rec, n, _ := scanWALRecord(data[off:])
				off += n
				if owner, _ := rec.owner(); owner != o {
					continue
				}
				if rec.kind&walOwnerTag != 0 {
					rec.kind, rec.payload = rec.kind&^walOwnerTag, rec.payload[walOwnerLen:]
				}
				own = appendWALRecord(own, rec.kind, rec.payload)
			}
			want := NewNodeState(o, 0)
			if _, err := replayWAL(want, own, RecoverOptions{Owner: o, Params: p}, false, nil); err != nil {
				t.Fatalf("owner %v: its own records of a log that replayed do not replay alone: %v", o, err)
			}
			if !bytes.Equal(stateBytes(t, got), stateBytes(t, want)) {
				t.Fatalf("owner %v: replaying the shared log gave another state than replaying its own records of it", o)
			}
		}
	})
}

// TestWALGroupCommitWindowGolden pins the on-disk image of a
// multi-record committed window byte for byte: records staged between
// two fsyncs are laid out back to back with no window framing of their
// own — the window exists only in the acknowledgement protocol, so a
// WAL written under SyncBatch is indistinguishable from one written
// record-at-a-time and every already-deployed replay can read it.
func TestWALGroupCommitWindowGolden(t *testing.T) {
	d := digest.Sum([]byte("2ldag"))
	var win []byte
	win = appendWALRecord(win, walKindDigest, appendWALDigest(nil, 3, d))
	win = appendWALRecord(win, walKindForget, []byte{3, 0, 0, 0})
	win = appendWALRecord(win, walKindDigest, appendWALDigest(nil, 5, d))
	const want = "03240000000300000099c40c59e749d56f24ecdd01951a85380b258e9a17b498e31292c2aa6530efcb3bfaf689" + // digest node 3
		"040400000003000000c4a11526" + // forget node 3
		"03240000000500000099c40c59e749d56f24ecdd01951a85380b258e9a17b498e31292c2aa6530efcbb3635d21" // digest node 5
	if got := hex.EncodeToString(win); got != want {
		t.Fatalf("window image diverged from golden bytes:\n got %s\nwant %s", got, want)
	}
	// The whole window replays: node 3's entry was upserted then
	// forgotten, node 5's survives.
	st := walState()
	stats, err := replayWAL(st, win, walOpts(), true, nil)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if stats.torn || stats.valid != len(win) {
		t.Fatalf("stats = %+v", stats)
	}
	if _, ok := st.Cache.Get(3); ok {
		t.Fatal("forgotten neighbor survived the window")
	}
	if got, ok := st.Cache.Get(5); !ok || got != d {
		t.Fatal("digest entry lost from the window")
	}
}

// TestWALReplayStrict: a rotated generation was repaired and synced
// before its rename, so strict replay (allowTorn=false) treats a torn
// record as corruption instead of silently dropping the tail.
func TestWALReplayStrict(t *testing.T) {
	key := identity.Deterministic(1, 1)
	blocks := chainFor(t, key, 2, nil)
	var log []byte
	log = appendWALRecord(log, walKindBlock, block.Encode(blocks[0]))
	log = appendWALRecord(log, walKindBlock, block.Encode(blocks[1]))

	torn := log[:len(log)-3]
	if _, err := replayWAL(walState(), torn, walOpts(), false, nil); !errors.Is(err, ErrBadWALRecord) {
		t.Fatalf("strict replay of a torn log: %v", err)
	}
	// The intact log passes strict replay unchanged.
	st := walState()
	if stats, err := replayWAL(st, log, walOpts(), false, nil); err != nil || stats.blocks != 2 {
		t.Fatalf("strict replay of an intact log: stats=%+v err=%v", stats, err)
	}
}

// TestWALReplayTrustHorizon: trust records carry their insertion
// index; replay applies only those at or past the store's current
// horizon, so records the snapshot already accounted for (including
// ones whose headers were since evicted) cannot re-enter a capped
// store. A record too short to carry the index is corruption.
func TestWALReplayTrustHorizon(t *testing.T) {
	nb := chainFor(t, identity.Deterministic(9, 1), 5, nil)
	var log []byte
	for i, b := range nb {
		log = appendWALRecord(log, walKindTrust, appendWALTrust(nil, int64(i), &b.Header))
	}

	st := walState()
	st.Trust.setInsertions(3)
	if _, err := replayWAL(st, log, walOpts(), true, nil); err != nil {
		t.Fatalf("replay: %v", err)
	}
	for i, b := range nb {
		if got := st.Trust.Has(b.Header.Hash()); got != (i >= 3) {
			t.Errorf("header %d stored = %v, horizon is 3", i, got)
		}
	}
	if st.Trust.Insertions() != 5 {
		t.Fatalf("inserted = %d, want 5", st.Trust.Insertions())
	}

	short := appendWALRecord(nil, walKindTrust, []byte{1, 2, 3})
	if _, err := replayWAL(walState(), short, walOpts(), true, nil); !errors.Is(err, ErrBadWALRecord) {
		t.Fatalf("short trust record: %v", err)
	}
}
