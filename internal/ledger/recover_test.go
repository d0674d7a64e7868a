package ledger

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/identity"
)

// recoverReference is how recovery verified blocks before the chain
// proof: every queued block re-sealed (unless the segment scan sealed
// it) and, with a Ring, validated on its own — one signature per block
// — the first failure in queue order reported. It stays as the
// reference the proof is checked against.
func recoverReference(v *recoverVerifier) (int, error) {
	for i, b := range v.blocks {
		if !b.Sealed() {
			if err := v.opts.Params.SealBlock(b); err != nil {
				return i, err
			}
		}
		if v.opts.Ring != nil {
			if err := v.opts.Params.Validate(b, v.opts.Ring); err != nil {
				return i, err
			}
		}
	}
	return len(v.blocks), nil
}

// ledgerFiles is a data dir as bytes: paths relative to the dir. A
// shared one is a log several owners write, each owner's segment and
// checkpoint in node-<id>; otherwise the dir is one owner's, opened
// with OpenFileBackend.
type ledgerFiles struct {
	files  map[string][]byte
	shared bool
}

// readLedgerFiles reads the regular files of a one-owner dir.
func readLedgerFiles(t testing.TB, dir string) ledgerFiles {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	lf := ledgerFiles{files: map[string][]byte{}}
	for _, e := range entries {
		if e.Type().IsRegular() {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			lf.files[e.Name()] = data
		}
	}
	return lf
}

// recoverOutcome is everything recovery says: the error, or the state
// and the report.
type recoverOutcome struct {
	err    string
	state  []byte
	report RecoveryReport
}

// recoverFiles lays lf out in a fresh dir under base and recovers
// opts.Owner from it — verifying blocks by recoverReference instead of
// the chain proof when reference is set.
func recoverFiles(t testing.TB, base string, lf ledgerFiles, opts RecoverOptions, reference bool) recoverOutcome {
	t.Helper()
	dir, err := os.MkdirTemp(base, "recover-")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	for name, data := range lf.files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if reference {
		defer func(saved func(*recoverVerifier) (int, error)) { checkBlocks = saved }(checkBlocks)
		checkBlocks = recoverReference
	}
	var fb *FileBackend
	if lf.shared {
		l, err := OpenLog(dir)
		if err != nil {
			return recoverOutcome{err: err.Error()}
		}
		defer l.Close()
		fb, err = l.OpenBackend(filepath.Join(dir, fmt.Sprintf("node-%d", opts.Owner)))
		if err != nil {
			t.Fatal(err)
		}
	} else if fb, err = OpenFileBackend(dir); err != nil {
		return recoverOutcome{err: err.Error()}
	}
	defer fb.Close()
	st, err := fb.Recover(opts)
	if err != nil {
		return recoverOutcome{err: err.Error()}
	}
	rep := fb.RecoveryReport()
	rep.Duration = 0 // wall time; everything else must match exactly
	return recoverOutcome{state: stateBytes(t, st), report: rep}
}

// sameOutcome describes how got differs from want, or returns "".
func sameOutcome(got, want recoverOutcome) string {
	switch {
	case got.err != want.err:
		return fmt.Sprintf("error %q, reference %q", got.err, want.err)
	case !bytes.Equal(got.state, want.state):
		return "recovered state differs from the reference's"
	case got.report != want.report:
		return fmt.Sprintf("report %+v, reference %+v", got.report, want.report)
	}
	return ""
}

// TestRecoveryFixturesMatchReference: over clean, torn, forged, gapped
// and wrong-owner fixtures — WAL-heavy and segment-heavy — recovery
// must accept exactly what the per-block reference accepts, with a
// byte-identical state and report, and fail with the identical error
// string. The chain proof may never change what recovery accepts,
// rejects, or says.
func TestRecoveryFixturesMatchReference(t *testing.T) {
	key, nb := identity.Deterministic(1, 1), identity.Deterministic(9, 1)
	ring := identity.NewRing()
	// nb signs the H_i headers, which a Ring-verified recovery validates.
	for _, k := range []identity.KeyPair{key, nb} {
		if err := ring.Register(k.ID, k.Public); err != nil {
			t.Fatal(err)
		}
	}
	opts := RecoverOptions{Owner: 1, Params: testParams(), Ring: ring}
	blocks := chainFor(t, key, 6, nil)

	// cleanDir: six own blocks plus lazy-tier records, all in wal.log.
	cleanDir := func(t *testing.T) string {
		dir := t.TempDir()
		fb, st := openBackendWith(t, dir, opts)
		for _, b := range blocks {
			if err := st.Store.Append(b); err != nil {
				t.Fatal(err)
			}
		}
		for _, b := range chainFor(t, nb, 2, nil) {
			st.Trust.Add(b.Header.Clone())
		}
		st.Cache.Update(9, digest.Sum([]byte("nine")))
		if err := fb.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	walOnly := func(t *testing.T, recs ...[]byte) string {
		dir := t.TempDir()
		var log []byte
		for _, r := range recs {
			log = appendWALRecord(log, walKindBlock, r)
		}
		if err := os.WriteFile(filepath.Join(dir, walFileName), log, 0o644); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	fixtures := []struct {
		name    string
		wantErr bool
		mk      func(t *testing.T) string
	}{
		{"wal", false, cleanDir},
		{"segment", false, func(t *testing.T) string {
			dir := cleanDir(t)
			fb, st := openBackendWith(t, dir, opts)
			// Compacted as the opener does: segment + checkpoint + empty WAL.
			if err := fb.Compact(func() (*NodeState, error) { return st, nil }); err != nil {
				t.Fatal(err)
			}
			if err := fb.Close(); err != nil {
				t.Fatal(err)
			}
			return dir
		}},
		{"torn-tail", false, func(t *testing.T) string {
			dir := cleanDir(t)
			path := filepath.Join(dir, walFileName)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, raw[:len(raw)-3], 0o644); err != nil {
				t.Fatal(err)
			}
			return dir
		}},
		{"forged-block", true, func(t *testing.T) string {
			forged := blocks[1].Clone()
			forged.Body[0] ^= 0xFF // valid frame CRC, fails Ring verification
			return walOnly(t, block.Encode(blocks[0]), block.Encode(forged))
		}},
		{"seq-gap", true, func(t *testing.T) string {
			return walOnly(t, block.Encode(blocks[1]))
		}},
		{"wrong-owner", true, func(t *testing.T) string {
			foreign := chainFor(t, identity.Deterministic(2, 1), 1, nil)[0]
			return walOnly(t, block.Encode(foreign))
		}},
		{"forged-segment-block", true, func(t *testing.T) string {
			// Tamper a block *after* it entered the store, then write it
			// out: the record CRC covers the tampered bytes (so it
			// passes), and only the cryptographic re-verification can
			// catch it.
			st := walState()
			for _, b := range blocks[:3] {
				if err := st.Store.Append(b); err != nil {
					t.Fatal(err)
				}
			}
			tampered, err := st.Store.Get(1)
			if err != nil {
				t.Fatal(err)
			}
			tampered.Body[0] ^= 0xFF
			dir := writeFiles(t, t.TempDir(), stateLedgerFiles(st).files)
			tampered.Body[0] ^= 0xFF // restore the shared fixture block
			return dir
		}},
		{"forged-checkpoint", true, func(t *testing.T) string {
			// A well-sealed checkpoint naming another newest block than
			// the segment it vouches for ends in.
			st := walState()
			for _, b := range blocks[:3] {
				if err := st.Store.Append(b); err != nil {
					t.Fatal(err)
				}
			}
			_, seg := stateFiles(st)
			mark := markOf(seg)
			mark.last = blocks[1].Header.Hash()
			return writeFiles(t, t.TempDir(), map[string][]byte{
				checkpointFileName: appendCheckpoint(nil, &checkpoint{st: st, seg: mark}),
				segmentFileName:    seg,
			})
		}},
	}
	for _, fix := range fixtures {
		t.Run(fix.name, func(t *testing.T) {
			lf := readLedgerFiles(t, fix.mk(t))
			base := t.TempDir()
			got := recoverFiles(t, base, lf, opts, false)
			if diff := sameOutcome(got, recoverFiles(t, base, lf, opts, true)); diff != "" {
				t.Fatal(diff)
			}
			if (got.err != "") != fix.wantErr {
				t.Fatalf("recovery error %q, want one: %v", got.err, fix.wantErr)
			}
		})
	}
}

// proofChain builds key's chain of n blocks: Δ[0] links each block to
// its predecessor (a random digest instead when unlinked), two
// neighbour digests ride along, and bodies are 1-96 random bytes.
func proofChain(t testing.TB, key identity.KeyPair, n int, rng *rand.Rand, linked bool) []*block.Block {
	t.Helper()
	out := make([]*block.Block, 0, n)
	var prev digest.Digest
	for i := 0; i < n; i++ {
		if !linked {
			prev = randomDigest(rng)
		}
		out = append(out, proofBlock(t, key, uint32(i), prev, rng))
		prev = out[i].Header.Hash()
	}
	return out
}

// proofBlock seals one block of key's at seq linking to prev.
func proofBlock(t testing.TB, key identity.KeyPair, seq uint32, prev digest.Digest, rng *rand.Rand) *block.Block {
	t.Helper()
	refs := []block.DigestRef{
		{Node: key.ID, Digest: prev},
		{Node: 7, Digest: randomDigest(rng)},
		{Node: 8, Digest: randomDigest(rng)},
	}
	body := make([]byte, 1+rng.Intn(96))
	rng.Read(body)
	b, err := testParams().Build(key, seq, seq, body, refs)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func randomDigest(rng *rand.Rand) digest.Digest {
	var d digest.Digest
	rng.Read(d[:])
	return d
}

func encodeAll(blocks []*block.Block) [][]byte {
	encs := make([][]byte, len(blocks))
	for i, b := range blocks {
		encs[i] = block.Encode(b)
	}
	return encs
}

// writeFiles writes files into dir and returns it.
func writeFiles(t testing.TB, dir string, files map[string][]byte) string {
	t.Helper()
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// stateLedgerFiles is a one-owner dir holding st's checkpoint and
// segment.
func stateLedgerFiles(st *NodeState) ledgerFiles {
	ckpt, seg := stateFiles(st)
	return ledgerFiles{files: map[string][]byte{checkpointFileName: ckpt, segmentFileName: seg}}
}

// rawState is owner's checkpoint, with an empty H_i and A_i, for the
// segment seg as it is: it records seg's whole records — what a
// compaction writes for those blocks, whether or not they would decode.
func rawState(owner identity.NodeID, seg []byte) (ckpt []byte) {
	return appendCheckpoint(nil, &checkpoint{st: NewNodeState(owner, 0), seg: markOf(seg)})
}

// chainLayout lays one owner's block encodings out in a data dir. The
// split points and the interleaving are fixed when the layout is made,
// so every mutation of the same chain lands in the same places.
type chainLayout struct {
	name    string
	seg     int    // blocks in the segment
	old     int    // blocks in wal.old after those
	noWAL   bool   // the segment holds everything
	pattern []bool // shared only: per wal.log block record, whether it is the other owner's
}

// chainLayouts returns the four layouts of an n-block chain: segment
// only, WAL only, segment + wal.old + wal.log split at random points,
// and a log shared with a second owner of others blocks.
func chainLayouts(n, others int, rng *rand.Rand) []chainLayout {
	a := rng.Intn(n + 1)
	b := a + rng.Intn(n-a+1)
	s := rng.Intn(n + 1)
	pattern := make([]bool, n-s+others)
	for _, i := range rng.Perm(len(pattern))[:others] {
		pattern[i] = true
	}
	return []chainLayout{
		{name: "segment", seg: n, noWAL: true},
		{name: "wal"},
		{name: fmt.Sprintf("split-%d-%d", a, b), seg: a, old: b - a},
		{name: fmt.Sprintf("shared-%d", s), seg: s, pattern: pattern},
	}
}

// files lays encs (owner 1's) out, with the other owner's encodings
// in a shared log. Every WAL layout ends its wal.log with a digest and
// a trust record of owner 1's (trusted: the other owner's genesis).
func (l chainLayout) files(encs, others [][]byte, trusted *block.Header) ledgerFiles {
	lazy := appendTagged(nil, 1, walKindDigest, appendWALDigest(nil, 9, digest.Sum([]byte("nine"))))
	lazy = appendTagged(lazy, 1, walKindTrust, appendWALTrust(nil, 0, trusted))

	lf := ledgerFiles{files: map[string][]byte{}, shared: l.pattern != nil}
	if l.seg > 0 {
		dir := ""
		if lf.shared {
			dir = "node-1"
		}
		seg, _ := segmentOf(encs[:l.seg])
		lf.files[filepath.Join(dir, segmentFileName)] = seg
		lf.files[filepath.Join(dir, checkpointFileName)] = rawState(1, seg)
	}
	if l.noWAL {
		return lf
	}
	var old, log []byte
	for _, e := range encs[l.seg : l.seg+l.old] {
		old = appendWALRecord(old, walKindBlock, e)
	}
	own, other := encs[l.seg+l.old:], others
	for _, theirs := range l.pattern {
		if theirs {
			log, other = appendWALRecord(log, walKindBlock, other[0]), other[1:]
		} else {
			log, own = appendWALRecord(log, walKindBlock, own[0]), own[1:]
		}
	}
	for _, e := range own {
		log = appendWALRecord(log, walKindBlock, e)
	}
	if old != nil {
		lf.files[walOldFileName] = old
	}
	lf.files[walFileName] = append(log, lazy...)
	return lf
}

// TestRecoverChainMatchesReference is the differential proof of the
// chain shortcut. Seeded linked chains of 1, 2, 7 and 300 blocks, each
// laid out four ways (chainLayouts), are recovered with the chain proof
// and with the per-block reference under a series of mutations: every
// header byte of the first, middle and last block and sampled body
// bytes (each record re-framed with a valid CRC), a same-key fork
// block swapped in at each position, an unlinked but individually
// valid chain, and a wrong signer for the whole chain or for its head
// alone. Every case must give the identical verdict, error string,
// state bytes and RecoveryReport. The 300-block chain — where a
// rejected case costs the reference 300 signatures — samples header
// bytes and fork positions instead of taking every one, and is left
// out under -race and -short, where the short chains take every
// seventh header byte.
func TestRecoverChainMatchesReference(t *testing.T) {
	owner, other := identity.Deterministic(1, 5), identity.Deterministic(2, 5)
	wrong := identity.Deterministic(1, 6) // claims owner 1's ID with another key
	ring := identity.NewRing()
	for _, k := range []identity.KeyPair{owner, other} {
		if err := ring.Register(k.ID, k.Public); err != nil {
			t.Fatal(err)
		}
	}
	opts := RecoverOptions{Owner: 1, Params: testParams(), Ring: ring}
	base := t.TempDir()
	for _, n := range []int{1, 2, 7, 300} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			if n > 7 && (raceEnabled || testing.Short()) {
				// Recovery runs on one goroutine, and the race detector
				// makes each of the reference's signatures ~10x dearer.
				t.Skip("the long chain runs without -race and -short")
			}
			rng := rand.New(rand.NewSource(int64(n)))
			chain := proofChain(t, owner, n, rng, true)
			theirs := proofChain(t, other, 3, rng, true)
			encs, others := encodeAll(chain), encodeAll(theirs)

			type mutation struct {
				name string
				encs [][]byte
			}
			var muts []mutation
			swap := func(name string, k int, enc []byte) {
				m := append([][]byte(nil), encs...)
				m[k] = enc
				muts = append(muts, mutation{name, m})
			}
			muts = append(muts, mutation{"honest", encs})
			stride, forks := 1, n
			switch {
			case n > 7:
				stride, forks = 23, 12
			case raceEnabled || testing.Short():
				stride = 7
			}
			for _, k := range slices.Compact([]int{0, n / 2, n - 1}) {
				hdr := chain[k].Header.WireSize()
				for j := rng.Intn(stride); j < hdr; j += stride {
					enc := append([]byte(nil), encs[k]...)
					enc[j] ^= byte(1 + rng.Intn(255))
					swap(fmt.Sprintf("header byte %d of block %d", j, k), k, enc)
				}
				enc := append([]byte(nil), encs[k]...)
				j := hdr + 4 + rng.Intn(len(chain[k].Body))
				enc[j] ^= byte(1 + rng.Intn(255))
				swap(fmt.Sprintf("body byte %d of block %d", j, k), k, enc)
			}
			for _, k := range rng.Perm(n)[:forks] {
				var prev digest.Digest
				if k > 0 {
					prev = chain[k-1].Header.Hash()
				}
				swap(fmt.Sprintf("fork at %d", k), k, block.Encode(proofBlock(t, owner, uint32(k), prev, rng)))
			}
			muts = append(muts, mutation{"unlinked", encodeAll(proofChain(t, owner, n, rng, false))})
			muts = append(muts, mutation{"wrong signer", encodeAll(proofChain(t, wrong, n, rng, true))})
			var prev digest.Digest
			if n > 1 {
				prev = chain[n-2].Header.Hash()
			}
			swap("wrong signer of the head", n-1, block.Encode(proofBlock(t, wrong, uint32(n-1), prev, rng)))

			accepted := 0
			for _, l := range chainLayouts(n, len(others), rng) {
				for _, m := range muts {
					lf := l.files(m.encs, others, &theirs[0].Header)
					got := recoverFiles(t, base, lf, opts, false)
					if diff := sameOutcome(got, recoverFiles(t, base, lf, opts, true)); diff != "" {
						t.Errorf("%s, %s: %s", l.name, m.name, diff)
					}
					if got.err == "" {
						accepted++
					}
					if m.name == "honest" && got.err != "" {
						t.Fatalf("%s: honest chain rejected: %s", l.name, got.err)
					}
				}
			}
			// Forks and the unlinked chain are validly signed: the matrix
			// must accept some of them as well as reject the rest.
			if accepted <= 4 || accepted == 4*len(muts) {
				t.Fatalf("%d of %d cases accepted: the matrix does not split", accepted, 4*len(muts))
			}
		})
	}
}

// TestRecoverChainSignedBySuccessor pins the one input on which the
// chain proof and the per-block reference disagree: block k carries a
// bad signature, yet its successor — validly signed by the same key —
// references k's hash. The reference rejects block k; the proof
// accepts, because the successor's signature commits to k as it is.
// Only the key holder can produce such a chain, and could as well have
// signed k properly.
func TestRecoverChainSignedBySuccessor(t *testing.T) {
	key := identity.Deterministic(1, 5)
	ring := identity.NewRing()
	if err := ring.Register(key.ID, key.Public); err != nil {
		t.Fatal(err)
	}
	opts := RecoverOptions{Owner: 1, Params: testParams(), Ring: ring}
	rng := rand.New(rand.NewSource(1))
	chain := proofChain(t, key, 2, rng, true)
	bad := chain[1].Clone()
	bad.Header.Signature[0] ^= 0xFF
	chain[1] = bad
	chain = append(chain, proofBlock(t, key, 2, bad.Header.Hash(), rng))
	lf := ledgerFiles{files: map[string][]byte{walFileName: walBlockRecords(encodeAll(chain))}}

	base := t.TempDir()
	got, want := recoverFiles(t, base, lf, opts, false), recoverFiles(t, base, lf, opts, true)
	if got.err != "" {
		t.Fatalf("chain proof rejected a chain its head signs: %s", got.err)
	}
	if !strings.Contains(want.err, "block at offset") || !strings.Contains(want.err, "header signature") {
		t.Fatalf("reference: %q, want block 1's signature rejected", want.err)
	}
	// Break the link and the proof no longer holds: the per-block pass
	// decides, as the reference does.
	chain[2] = proofBlock(t, key, 2, randomDigest(rng), rng)
	lf.files[walFileName] = walBlockRecords(encodeAll(chain))
	got, want = recoverFiles(t, base, lf, opts, false), recoverFiles(t, base, lf, opts, true)
	if diff := sameOutcome(got, want); diff != "" || got.err == "" {
		t.Fatalf("unlinked successor: %s (error %q)", diff, got.err)
	}
}

// walBlockRecords frames each encoding as a block record.
func walBlockRecords(encs [][]byte) []byte {
	var log []byte
	for _, e := range encs {
		log = appendWALRecord(log, walKindBlock, e)
	}
	return log
}

// reframeWAL recomputes the CRC of every whole record in buf, in place,
// so mutated record bytes reach the decoder instead of a torn tail.
func reframeWAL(buf []byte) {
	for off := 0; off+walHeaderLen <= len(buf); {
		size := int(binary.LittleEndian.Uint32(buf[off+1:]))
		end := off + walHeaderLen + size
		if size > maxWALPayload || end+walCRCLen > len(buf) {
			return
		}
		binary.LittleEndian.PutUint32(buf[end:], crc32.Checksum(buf[off:end], walTable))
		off = end + walCRCLen
	}
}

// FuzzRecoverMatchesReference edits the records of a four-block chain
// and a trust record behind it, then lays them out: the first split
// records go to the segment, the rest to wal.log. The edits, in order:
//   - rec picks one record edit — none, duplicate, swap with the next
//     or drop (low 2 bits) — of record rec>>2;
//   - splice inserts or deletes (bit 31) splice>>16&0xff bytes at
//     offset splice&0xffff of the segment and WAL bytes taken as one
//     string, inserting copies of byte splice>>24&0x7f;
//   - six xors, each an offset (low 16 bits) into those bytes and a
//     byte to xor there (the next 8), flip bytes anywhere in them
//     (kinds, lengths, headers, bodies).
//
// Every whole record's CRC is then recomputed, so the edits reach the
// block checks; the checkpoint records the segment's whole records as
// they are; the first tail bytes of wal.log are appended to the segment
// behind that prefix, as by an append whose checkpoint never committed;
// and cut bytes are torn off wal.log's end. Recovery must match the
// per-block reference exactly: the one input they disagree on
// (TestRecoverChainSignedBySuccessor) needs a signature only the key
// can make.
//
// Every argument is an integer because the fuzzing engine minimizes
// each input that widens coverage before it runs another, for up to
// -fuzzminimizetime (60 s by default), and minimizes only []byte and
// string arguments — dropping every contiguous range of one, then
// trying 32 substitutes for each byte. Over the ~1.5 KB of raw segment
// and WAL bytes this target used to take, at two recoveries a try, the
// first interesting input took the whole window: 5-8 execs in 15 s.
// Integers leave nothing to minimize.
func FuzzRecoverMatchesReference(f *testing.F) {
	key, nb := identity.Deterministic(1, 5), identity.Deterministic(9, 5)
	ring := identity.NewRing()
	for _, k := range []identity.KeyPair{key, nb} {
		if err := ring.Register(k.ID, k.Public); err != nil {
			f.Fatal(err)
		}
	}
	opts := RecoverOptions{Owner: 1, Params: testParams(), Ring: ring}
	rng := rand.New(rand.NewSource(4))
	encs := encodeAll(proofChain(f, key, 4, rng, true))
	trusted := proofChain(f, nb, 1, rng, true)[0]
	trust := appendTagged(nil, 1, walKindTrust, appendWALTrust(nil, 0, &trusted.Header))
	// Seeds: the honest layouts; a header byte, a body byte and a record
	// length of block 2; block 1 duplicated, blocks 1 and 2 swapped,
	// block 2 dropped; 16 bytes inserted into and deleted from block 2;
	// a whole block and half of one behind the segment's prefix; and a
	// torn tail.
	seed := func(split uint8, rec uint16, splice uint32, tail, cut uint16, xor uint32) {
		f.Add(split, rec, splice, tail, cut, xor, uint32(0), uint32(0), uint32(0), uint32(0), uint32(0))
	}
	for _, split := range []uint8{2, 0, 4} {
		seed(split, 0, 0, 0, 0, 0)
	}
	rec := walHeaderLen + len(encs[0]) + walCRCLen
	for _, at := range []int{2*rec + walHeaderLen + 40, 3*rec - walCRCLen - 1, 2*rec + 1} {
		seed(2, 0, 0, 0, 0, uint32(at)|0x10<<16)
	}
	seed(2, 1<<2|1, 0, 0, 0, 0)
	seed(2, 1<<2|2, 0, 0, 0, 0)
	seed(2, 2<<2|3, 0, 0, 0, 0)
	seed(2, 0, uint32(2*rec+walHeaderLen+40)|16<<16|0x5A<<24, 0, 0, 0)
	seed(2, 0, uint32(2*rec+walHeaderLen+40)|16<<16|1<<31, 0, 0, 0)
	seed(2, 0, 0, uint16(rec), 0, 0)
	seed(2, 0, 0, uint16(rec/2), 0, 0)
	seed(1, 0, 0, 0, 3, 0)
	base := f.TempDir()
	f.Fuzz(func(t *testing.T, split uint8, rec uint16, splice uint32, tail, cut uint16, e0, e1, e2, e3, e4, e5 uint32) {
		recs := make([][]byte, 0, len(encs)+2)
		for _, e := range encs {
			recs = append(recs, appendWALRecord(nil, walKindBlock, e))
		}
		recs = append(recs, trust)
		switch i := int(rec>>2) % len(recs); rec & 3 {
		case 1:
			recs = slices.Insert(recs, i, recs[i])
		case 2:
			if i+1 < len(recs) {
				recs[i], recs[i+1] = recs[i+1], recs[i]
			}
		case 3:
			recs = slices.Delete(recs, i, i+1)
		}
		k := int(split) % (len(recs) + 1)
		segLen := len(slices.Concat(recs[:k]...))
		all := slices.Concat(recs...)
		at, n := int(splice&0xffff)%(len(all)+1), int(splice>>16&0xff)
		if splice>>31 == 0 {
			all = slices.Insert(all, at, bytes.Repeat([]byte{byte(splice >> 24 & 0x7f)}, n)...)
			if at < segLen {
				segLen += n
			}
		} else {
			n = min(n, len(all)-at)
			all = slices.Delete(all, at, at+n)
			segLen -= max(0, min(segLen, at+n)-at)
		}
		for _, e := range []uint32{e0, e1, e2, e3, e4, e5} {
			if len(all) > 0 {
				all[int(e&0xffff)%len(all)] ^= byte(e >> 16)
			}
		}
		seg, wal := all[:segLen:segLen], all[segLen:]
		reframeWAL(seg)
		reframeWAL(wal)
		ckpt := rawState(1, seg)
		seg = append(seg, wal[:int(tail)%(len(wal)+1)]...)
		wal = wal[:len(wal)-int(cut)%(len(wal)+1)]
		lf := ledgerFiles{files: map[string][]byte{checkpointFileName: ckpt, segmentFileName: seg, walFileName: wal}}
		got, want := recoverFiles(t, base, lf, opts, false), recoverFiles(t, base, lf, opts, true)
		if diff := sameOutcome(got, want); diff != "" {
			t.Fatal(diff)
		}
	})
}

// TestRecoverRejectsForgedTrustHeader: a Ring-verified recovery
// authenticates H_i as well as S_i. A neighbour's header with one
// signature byte flipped — planted in the checkpoint's H_i branch or
// in a WAL trust record — fails recovery; before, it was restored
// with nothing but a CRC check and then counted as a voucher by every
// audit whose path crossed it. Each header is validated on its own:
// H_i links headers of different owners, so no one signature vouches
// for another owner's header.
func TestRecoverRejectsForgedTrustHeader(t *testing.T) {
	key, nb := identity.Deterministic(4, 4), identity.Deterministic(9, 4)
	ring := identity.NewRing()
	for _, k := range []identity.KeyPair{key, nb} {
		if err := ring.Register(k.ID, k.Public); err != nil {
			t.Fatal(err)
		}
	}
	opts := RecoverOptions{Owner: 4, Params: testParams(), Ring: ring}
	own := chainFor(t, key, 2, nil)
	audited := chainFor(t, nb, 2, nil)
	forged := audited[1].Header.Clone()
	forged.Signature[0] ^= 0xFF
	forged.Seal()

	state := func(h *block.Header) *NodeState {
		st := NewNodeState(4, 0)
		for _, b := range own {
			if err := st.Store.Append(b); err != nil {
				t.Fatal(err)
			}
		}
		st.Trust.Add(audited[0].Header.Clone())
		st.Trust.Add(h)
		return st
	}
	var log []byte
	for _, b := range own {
		log = appendWALRecord(log, walKindBlock, block.Encode(b))
	}
	log = appendTagged(log, 4, walKindTrust, appendWALTrust(nil, 0, &audited[0].Header))
	forgedAt := len(log)
	log = appendTagged(log, 4, walKindTrust, appendWALTrust(nil, 1, forged))

	base := t.TempDir()
	for _, tc := range []struct {
		name string
		lf   ledgerFiles
		want error
		at   string
	}{
		{"checkpoint", stateLedgerFiles(state(forged)), ErrBadCheckpoint, "H_i: header 1:"},
		{"wal", ledgerFiles{files: map[string][]byte{walFileName: log}}, ErrBadWALRecord, fmt.Sprintf("trust header at offset %d:", forgedAt)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := recoverFiles(t, base, tc.lf, opts, false)
			if !strings.Contains(got.err, tc.want.Error()) || !strings.Contains(got.err, tc.at) || !strings.Contains(got.err, "header signature") {
				t.Fatalf("recovery error %q, want %v at %q", got.err, tc.want, tc.at)
			}
			// Without a Ring nothing is authenticated, H_i included.
			unverified := opts
			unverified.Ring = nil
			if out := recoverFiles(t, base, tc.lf, unverified, false); out.err != "" {
				t.Fatalf("Ring-less recovery: %s", out.err)
			}
		})
	}
	// The honest header passes: the check costs a signature, not a verdict.
	honest := stateLedgerFiles(state(audited[1].Header.Clone()))
	if out := recoverFiles(t, base, honest, opts, false); out.err != "" {
		t.Fatalf("honest H_i rejected: %s", out.err)
	}
}
