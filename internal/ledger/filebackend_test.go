package ledger

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/identity"
)

// openBackend opens and recovers a backend in dir, returning both.
func openBackend(t *testing.T, dir string, opts RecoverOptions) (*FileBackend, *NodeState) {
	t.Helper()
	fb, err := OpenFileBackend(dir)
	if err != nil {
		t.Fatalf("OpenFileBackend: %v", err)
	}
	st, err := fb.Recover(opts)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	st.Attach(fb)
	return fb, st
}

// driveState pushes a representative workload through an attached
// state: n own blocks, a neighbor header, digest churn and a forget.
func driveState(t *testing.T, st *NodeState, n int) {
	t.Helper()
	key := identity.Deterministic(st.Store.Owner(), 4)
	have := st.Store.Len()
	for _, b := range chainFor(t, key, have+n, nil)[have:] {
		if err := st.Store.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	nb := identity.Deterministic(9, 4)
	for _, b := range chainFor(t, nb, 2, nil) {
		st.Trust.Add(b.Header.Clone())
	}
	st.Cache.Update(9, digest.Sum([]byte("a")))
	st.Cache.Update(9, digest.Sum([]byte("b")))
	st.Cache.Update(8, digest.Sum([]byte("c")))
	st.Cache.Forget(8)
}

// TestFileBackendRecoverEquivalence is the backend-level crash proof:
// a state driven through a journaling backend, abandoned without any
// graceful shutdown (only LogBlock's own fsyncs and one Flush),
// recovers byte-identical on reopen.
func TestFileBackendRecoverEquivalence(t *testing.T) {
	dir := t.TempDir()
	opts := RecoverOptions{Owner: 4, Params: testParams()}

	fb, st := openBackend(t, dir, opts)
	driveState(t, st, 3)
	want := stateBytes(t, st)
	// Simulate a process kill: no Sync, no Close — just drop the handle
	// once everything logged is written (the trust/digest tail after
	// the last block is still buffered until then). Written bytes are in
	// the kernel and survive a kill; what fsync adds is power loss,
	// which TestWALCrashImages covers.
	if err := fb.Flush(); err != nil {
		t.Fatal(err)
	}

	fb2, st2 := openBackend(t, dir, opts)
	defer fb2.Close()
	if !bytes.Equal(stateBytes(t, st2), want) {
		t.Fatal("recovered state differs from the pre-crash state")
	}
	if rep := fb2.RecoveryReport(); rep.SegmentBlocks != 0 || rep.WALBlocks != 3 {
		t.Fatalf("first recovery read %+v, want the 3 blocks from the WAL", rep)
	}
	// Compacted as the opener does once every owner has recovered: blocks
	// in the segment, a checkpoint, an empty WAL.
	if err := fb2.Compact(func() (*NodeState, error) { return st2, nil }); err != nil {
		t.Fatal(err)
	}
	if fb2.PendingBlocks() != 0 {
		t.Fatal("compaction left pending WAL blocks")
	}
	if info, err := os.Stat(filepath.Join(dir, walFileName)); err != nil || info.Size() != 0 {
		t.Fatalf("compaction left the WAL as it was: %v", err)
	}
	// And the recovered node keeps working: more appends, another
	// recovery, still equivalent.
	driveState(t, st2, 2)
	want = stateBytes(t, st2)
	if err := fb2.Close(); err != nil {
		t.Fatal(err)
	}
	fb3, st3 := openBackend(t, dir, opts)
	defer fb3.Close()
	if !bytes.Equal(stateBytes(t, st3), want) {
		t.Fatal("second recovery differs")
	}
	if rep := fb3.RecoveryReport(); rep.SegmentBlocks != 3 || rep.WALBlocks != 2 {
		t.Fatalf("second recovery read %+v, want 3 blocks from the segment and 2 from the WAL", rep)
	}
}

// dirSum hashes the names and contents of dir's regular files.
func dirSum(t *testing.T, dir string) [sha256.Size]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, e := range entries { // sorted by name
		if !e.Type().IsRegular() {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(e.Name()))
		h.Write(raw)
	}
	return [sha256.Size]byte(h.Sum(nil))
}

// TestFileBackendRecoverWritesNothing: Recover reads the data dir and
// writes none of it — a stale checkpoint.tmp goes, nothing else moves.
// Compacting what it replayed is the opener's, once every owner has
// recovered.
func TestFileBackendRecoverWritesNothing(t *testing.T) {
	dir := t.TempDir()
	opts := RecoverOptions{Owner: 4, Params: testParams()}
	fb, st := openBackend(t, dir, opts)
	driveState(t, st, 2)
	if err := fb.Compact(func() (*NodeState, error) { return st, nil }); err != nil {
		t.Fatal(err)
	}
	driveState(t, st, 2)
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	before := dirSum(t, dir)
	tmp := filepath.Join(dir, checkpointTmpName)
	if err := os.WriteFile(tmp, []byte("an interrupted compaction's"), 0o644); err != nil {
		t.Fatal(err)
	}

	fb2, err := OpenFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fb2.Close()
	if _, err := fb2.Recover(opts); err != nil {
		t.Fatal(err)
	}
	if rep := fb2.RecoveryReport(); rep.SegmentBlocks != 2 || rep.WALBlocks != 2 {
		t.Fatalf("recovery read %+v, want 2 blocks from the segment and 2 from the WAL", rep)
	}
	if _, err := os.Stat(tmp); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("checkpoint.tmp survived recovery")
	}
	if dirSum(t, dir) != before {
		t.Fatal("recovery rewrote the data dir")
	}
}

// TestOpenLogRefusesUntaggedRecords: an earlier build wrote the trust,
// digest and forget records of a `serve` dir without an owner tag. A
// generation holding one, current or rotated, is refused as the log
// opens, the error naming the format; a dir of block records alone —
// never tagged — opens and recovers as it is.
func TestOpenLogRefusesUntaggedRecords(t *testing.T) {
	own := chainFor(t, identity.Deterministic(4, 4), 2, nil)
	nb := chainFor(t, identity.Deterministic(9, 4), 1, nil)[0]
	var blocks []byte
	for _, b := range own {
		blocks = appendWALRecord(blocks, walKindBlock, block.Encode(b))
	}
	untagged := appendWALRecord(slices.Clip(blocks), walKindTrust, appendWALTrust(nil, 0, &nb.Header))
	for _, gen := range []string{walFileName, walOldFileName} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, gen), untagged, 0o644); err != nil {
			t.Fatal(err)
		}
		fb, err := OpenFileBackend(dir)
		if err == nil {
			fb.Close()
		}
		if err == nil || !strings.Contains(err.Error(), gen) || !strings.Contains(err.Error(), "earlier build") {
			t.Fatalf("%s with an untagged trust record: %v, want it refused as an earlier build's", gen, err)
		}
		if l, err := OpenLog(dir); err == nil {
			l.Close()
			t.Fatalf("%s with an untagged trust record: OpenLog took it", gen)
		}
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, walFileName), blocks, 0o644); err != nil {
		t.Fatal(err)
	}
	before := dirSum(t, dir)
	fb, err := OpenFileBackend(dir)
	if err != nil {
		t.Fatalf("a dir of block records: %v", err)
	}
	defer fb.Close()
	st, err := fb.Recover(RecoverOptions{Owner: 4, Params: testParams()})
	if err != nil || st.Store.Len() != len(own) {
		t.Fatalf("a dir of block records recovered %v, err %v", st, err)
	}
	if dirSum(t, dir) != before {
		t.Fatal("opening a dir of block records changed it")
	}
}

// TestRecoverUnderNewTrustCapCommits: a Recover under another trust cap
// than its checkpoint records derives a state the checkpoint does not
// hold, though it reads no record from the log. The next Compact
// commits it, so a restart that takes the recorded cap finds the new
// one.
func TestRecoverUnderNewTrustCapCommits(t *testing.T) {
	dir := t.TempDir()
	opts := RecoverOptions{Owner: 4, Params: testParams(), TrustCap: 4}
	fb, st := openBackend(t, dir, opts)
	for _, b := range chainFor(t, identity.Deterministic(9, 4), 4, nil) {
		st.Trust.Add(b.Header.Clone())
	}
	bounce := func(st *NodeState) {
		t.Helper()
		if err := fb.Compact(func() (*NodeState, error) { return st, nil }); err != nil {
			t.Fatal(err)
		}
		if err := fb.Close(); err != nil {
			t.Fatal(err)
		}
	}
	bounce(st)
	opts.TrustCap = 2
	fb, st = openBackend(t, dir, opts)
	if st.Trust.Len() != 2 {
		t.Fatalf("recovered under cap 2 with %d headers", st.Trust.Len())
	}
	want := stateBytes(t, st)
	bounce(st)
	opts.TrustCap = 0 // the recorded cap
	fb, st = openBackend(t, dir, opts)
	defer fb.Close()
	if st.TrustCap != 2 || !bytes.Equal(stateBytes(t, st), want) {
		t.Fatalf("restart under the recorded cap found cap %d and %d headers, want the state recovered under cap 2", st.TrustCap, st.Trust.Len())
	}
}

func TestFileBackendFreshDir(t *testing.T) {
	fb, st := openBackend(t, t.TempDir(), RecoverOptions{Owner: 7, Params: testParams()})
	defer fb.Close()
	if st.Store.Len() != 0 || st.Store.Owner() != 7 {
		t.Fatal("fresh recover not empty")
	}
	if _, err := fb.Recover(RecoverOptions{Owner: 7}); err == nil {
		t.Fatal("second Recover must fail")
	}
}

// TestFileBackendTornTail: a crash mid-record (the WAL ends in a
// partial frame) recovers everything before the tear.
func TestFileBackendTornTail(t *testing.T) {
	dir := t.TempDir()
	opts := RecoverOptions{Owner: 4, Params: testParams()}
	fb, st := openBackend(t, dir, opts)
	driveState(t, st, 2)
	// Fold the two blocks into the segment so the hand-crafted WAL
	// below continues from them.
	if err := fb.Compact(func() (*NodeState, error) { return st, nil }); err != nil {
		t.Fatal(err)
	}
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}

	// Write two block records and tear the second.
	key := identity.Deterministic(4, 4)
	blocks := chainFor(t, key, 4, nil)
	var log []byte
	log = appendWALRecord(log, walKindBlock, block.Encode(blocks[2]))
	log = appendWALRecord(log, walKindBlock, block.Encode(blocks[3]))
	if err := os.WriteFile(filepath.Join(dir, walFileName), log[:len(log)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	fb2, st2 := openBackend(t, dir, opts)
	defer fb2.Close()
	if st2.Store.Len() != 3 {
		t.Fatalf("recovered %d blocks, want 3 (2 segment + 1 intact WAL)", st2.Store.Len())
	}
	if b, _ := st2.Store.Get(2); b.Header.Hash() != blocks[2].Header.Hash() {
		t.Fatal("intact WAL record not applied")
	}
}

// TestFileBackendCompaction: rotation folds the WAL into segment and
// checkpoint, logging continues, and recovery reads both plus the new
// generation.
func TestFileBackendCompaction(t *testing.T) {
	dir := t.TempDir()
	opts := RecoverOptions{Owner: 4, Params: testParams()}
	fb, st := openBackend(t, dir, opts)
	driveState(t, st, 3)
	if fb.PendingBlocks() != 3 {
		t.Fatalf("pending = %d, want 3", fb.PendingBlocks())
	}
	if err := fb.Compact(func() (*NodeState, error) { return st, nil }); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if fb.PendingBlocks() != 0 {
		t.Fatal("compaction did not reset pending")
	}
	if _, err := os.Stat(filepath.Join(dir, walOldFileName)); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("wal.old survived a completed compaction")
	}
	// Post-compaction appends land in the new generation…
	driveState(t, st, 1)
	if fb.PendingBlocks() != 1 {
		t.Fatalf("pending = %d after post-compaction append", fb.PendingBlocks())
	}
	want := stateBytes(t, st)
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	// …and recovery reads checkpoint and segment + new WAL.
	fb2, st2 := openBackend(t, dir, opts)
	defer fb2.Close()
	if !bytes.Equal(stateBytes(t, st2), want) {
		t.Fatal("post-compaction recovery differs")
	}
}

// TestFileBackendCrashedCompaction: a compaction interrupted between
// rotation and checkpoint commit leaves wal.old, possibly a
// checkpoint.tmp and segment bytes no checkpoint records; recovery
// replays segment + wal.old + wal.log, discards the tmp and reads none
// of the uncommitted bytes, and the compaction after it appends behind
// the committed prefix only.
func TestFileBackendCrashedCompaction(t *testing.T) {
	dir := t.TempDir()
	opts := RecoverOptions{Owner: 4, Params: testParams()}
	fb, st := openBackend(t, dir, opts)
	driveState(t, st, 2)
	want := stateBytes(t, st)
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}

	// Hand-craft the crash window: the WAL generation renamed to
	// wal.old, an empty current WAL, a garbage checkpoint.tmp, and a
	// segment append that never committed.
	if err := os.Rename(filepath.Join(dir, walFileName), filepath.Join(dir, walOldFileName)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, walFileName), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, checkpointTmpName), []byte("partial checkpoint garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segmentFileName), []byte("uncommitted segment garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	fb2, st2 := openBackend(t, dir, opts)
	defer fb2.Close()
	if !bytes.Equal(stateBytes(t, st2), want) {
		t.Fatal("crashed-compaction recovery differs")
	}
	if _, err := os.Stat(filepath.Join(dir, checkpointTmpName)); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("checkpoint.tmp survived recovery")
	}
	// The opener's compaction, once every owner has recovered, finishes
	// the crashed one.
	if err := fb2.Compact(func() (*NodeState, error) { return st2, nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, walOldFileName)); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("wal.old survived the compaction after recovery")
	}
	strictSegment(t, dir)
}

// strictSegment fails unless dir's segment is exactly the run of intact
// block records its checkpoint records.
func strictSegment(t *testing.T, dir string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, checkpointFileName))
	if err != nil {
		t.Fatal(err)
	}
	var mark segmentMark
	if err := mark.read(&cursor{buf: raw, off: len(checkpointMagic) + 4 + 4}); err != nil {
		t.Fatal(err)
	}
	seg, err := os.ReadFile(filepath.Join(dir, segmentFileName))
	if err != nil && !(errors.Is(err, os.ErrNotExist) && mark.size == 0) {
		t.Fatal(err)
	}
	if got := markOf(seg); got != mark || int64(len(seg)) != mark.size {
		t.Fatalf("segment of %d bytes holds %+v, its checkpoint records %+v", len(seg), got, mark)
	}
}

func TestFileBackendWrongOwner(t *testing.T) {
	dir := t.TempDir()
	opts := RecoverOptions{Owner: 4, Params: testParams()}
	fb, st := openBackend(t, dir, opts)
	driveState(t, st, 1)
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	fb2, err := OpenFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fb2.Close()
	if _, err := fb2.Recover(RecoverOptions{Owner: 5, Params: testParams()}); !errors.Is(err, ErrWrongOwner) {
		t.Fatalf("foreign data dir: %v", err)
	}
}

func TestFileBackendClosed(t *testing.T) {
	fb, st := openBackend(t, t.TempDir(), RecoverOptions{Owner: 4, Params: testParams()})
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	key := identity.Deterministic(4, 4)
	b := chainFor(t, key, 1, nil)[0]
	// A block append against a closed backend must fail — write-ahead
	// means no journal, no accept.
	if err := st.Store.Append(b); err == nil || !errors.Is(err, ErrBackendClosed) {
		t.Fatalf("append after close: %v", err)
	}
	if st.Store.Len() != 0 {
		t.Fatal("block accepted without a journal record")
	}
	// Non-critical journal calls fail too, but quietly (sticky path).
	if err := fb.LogDigest(9, digest.Digest{}); !errors.Is(err, ErrBackendClosed) {
		t.Fatalf("LogDigest after close: %v", err)
	}
	if err := fb.Sync(); !errors.Is(err, ErrBackendClosed) {
		t.Fatalf("Sync after close: %v", err)
	}
	if err := fb.Close(); !errors.Is(err, ErrBackendClosed) {
		t.Fatalf("double Close: %v", err)
	}
	if err := fb.Compact(func() (*NodeState, error) { return st, nil }); !errors.Is(err, ErrBackendClosed) {
		t.Fatalf("Compact after close: %v", err)
	}
}

// TestFileBackendRing: recovery with a Ring re-verifies every block: a
// validly-framed but forged WAL block is caught by Validate.
func TestFileBackendRing(t *testing.T) {
	dir := t.TempDir()
	key := identity.Deterministic(4, 4)
	ring := identity.NewRing()
	if err := ring.Register(key.ID, key.Public); err != nil {
		t.Fatal(err)
	}
	opts := RecoverOptions{Owner: 4, Params: testParams(), Ring: ring}
	fb, st := openBackend(t, dir, opts)
	driveState(t, st, 2)
	if err := fb.Compact(func() (*NodeState, error) { return st, nil }); err != nil {
		t.Fatal(err)
	}
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}

	// Forge a WAL block: right owner and sequence, corrupted body,
	// valid frame CRC (the frame protects against disk errors, the
	// Ring against forgery).
	forged := chainFor(t, key, 3, nil)[2].Clone()
	forged.Body[0] ^= 0xFF
	log := appendWALRecord(nil, walKindBlock, block.Encode(forged))
	if err := os.WriteFile(filepath.Join(dir, walFileName), log, 0o644); err != nil {
		t.Fatal(err)
	}
	fb2, err := OpenFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fb2.Close()
	if _, err := fb2.Recover(opts); err == nil {
		t.Fatal("forged WAL block recovered with Ring set")
	}
}

// TestFileBackendPartialWriteRepair: a failed write can leave a
// partial frame mid-WAL (os.File.Write errors after writing some
// bytes, e.g. ENOSPC). The generation is poisoned; the next write
// truncates back to the last intact record, so blocks fsynced after
// the failure are never stranded behind garbage that replay would
// stop at.
func TestFileBackendPartialWriteRepair(t *testing.T) {
	dir := t.TempDir()
	opts := RecoverOptions{Owner: 4, Params: testParams()}
	fb, st := openBackend(t, dir, opts)
	driveState(t, st, 2)

	// Inject the failure aftermath exactly as logLocked records it:
	// bytes on disk past goodOff, dirty set. (Half a frame header is as
	// ugly as it gets — replay could not even skip it as a bad record.)
	fb.log.mu.Lock()
	if _, err := fb.log.f.Write([]byte{walKindTrust, 0xFF, 0xFF}); err != nil {
		fb.log.mu.Unlock()
		t.Fatal(err)
	}
	fb.log.dirty = true
	fb.log.mu.Unlock()

	// Logging continues: the next append must repair first, then the
	// block fsync acknowledges it.
	driveState(t, st, 1)
	want := stateBytes(t, st)

	// The on-disk generation is clean again: replaying it from scratch
	// finds no tear and every block record.
	buf, err := os.ReadFile(filepath.Join(dir, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := replayWAL(NewNodeState(4, 0), buf, opts, true, nil)
	if err != nil {
		t.Fatalf("replaying repaired WAL: %v", err)
	}
	if stats.torn || stats.blocks != 3 {
		t.Fatalf("repaired WAL stats = %+v, want 3 intact blocks, no tear", stats)
	}

	// Crash (drop the handle) and recover: every acknowledged block —
	// including the one appended after the failure — survives.
	fb2, st2 := openBackend(t, dir, opts)
	defer fb2.Close()
	if !bytes.Equal(stateBytes(t, st2), want) {
		t.Fatal("recovery after a repaired partial write differs")
	}
}

// TestFileBackendPartialWriteRepairOnRotate: rotation must not rename
// a poisoned generation — wal.old carrying a partial frame would turn
// recovery's strict old-generation replay into a spurious failure.
func TestFileBackendPartialWriteRepairOnRotate(t *testing.T) {
	dir := t.TempDir()
	opts := RecoverOptions{Owner: 4, Params: testParams()}
	fb, st := openBackend(t, dir, opts)
	driveState(t, st, 2)

	fb.log.mu.Lock()
	if _, err := fb.log.f.Write([]byte("torn frame")); err != nil {
		fb.log.mu.Unlock()
		t.Fatal(err)
	}
	fb.log.dirty = true
	fb.log.mu.Unlock()

	// Compact rotates (repairing first), then snapshots and deletes
	// wal.old — simulate the compaction crash window by checking the
	// rotated file directly before the gather callback runs.
	var rotated []byte
	if err := fb.Compact(func() (*NodeState, error) {
		var err error
		rotated, err = os.ReadFile(filepath.Join(dir, walOldFileName))
		return st, err
	}); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if stats, err := replayWAL(NewNodeState(4, 0), rotated, opts, false, nil); err != nil {
		t.Fatalf("rotated generation fails strict replay: %v", err)
	} else if stats.blocks != 2 {
		t.Fatalf("rotated generation holds %d blocks, want 2", stats.blocks)
	}
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFileBackendTornOldWAL: wal.old is synced and repaired before its
// rotation rename, so a torn record there is corruption — recovery
// must refuse rather than silently drop every record after the tear.
func TestFileBackendTornOldWAL(t *testing.T) {
	dir := t.TempDir()
	key := identity.Deterministic(4, 4)
	blocks := chainFor(t, key, 2, nil)
	var log []byte
	log = appendWALRecord(log, walKindBlock, block.Encode(blocks[0]))
	log = appendWALRecord(log, walKindBlock, block.Encode(blocks[1]))
	if err := os.WriteFile(filepath.Join(dir, walOldFileName), log[:len(log)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	fb, err := OpenFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	if _, err := fb.Recover(RecoverOptions{Owner: 4, Params: testParams()}); !errors.Is(err, ErrBadWALRecord) {
		t.Fatalf("torn wal.old recovered: %v", err)
	}
}

// TestFileBackendRecoveryReport: the report counts segment blocks,
// replayed WAL blocks and bytes, and surfaces a discarded torn tail.
func TestFileBackendRecoveryReport(t *testing.T) {
	dir := t.TempDir()
	opts := RecoverOptions{Owner: 4, Params: testParams()}
	fb, st := openBackend(t, dir, opts)
	driveState(t, st, 2)
	if err := fb.Compact(func() (*NodeState, error) { return st, nil }); err != nil {
		t.Fatal(err)
	}
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}

	// One intact block record, then a torn one.
	key := identity.Deterministic(4, 4)
	blocks := chainFor(t, key, 4, nil)
	var log []byte
	log = appendWALRecord(log, walKindBlock, block.Encode(blocks[2]))
	intact := len(log)
	log = appendWALRecord(log, walKindBlock, block.Encode(blocks[3]))
	torn := log[:len(log)-3]
	if err := os.WriteFile(filepath.Join(dir, walFileName), torn, 0o644); err != nil {
		t.Fatal(err)
	}

	fb2, st2 := openBackend(t, dir, opts)
	defer fb2.Close()
	rep := fb2.RecoveryReport()
	want := RecoveryReport{
		SegmentBlocks: 2,
		WALBlocks:     1,
		WALBytes:      intact,
		TornTail:      true,
		TornBytes:     len(torn) - intact,
	}
	if rep.Duration <= 0 {
		t.Fatalf("report duration %v, want > 0", rep.Duration)
	}
	rep.Duration = 0 // wall time; everything else must match exactly
	if rep != want {
		t.Fatalf("report = %+v, want %+v", rep, want)
	}
	if st2.Store.Len() != 3 {
		t.Fatalf("recovered %d blocks, want 3", st2.Store.Len())
	}
}

// TestFileBackendTrustEvictionHorizon is the capped-trust scenario: a
// checkpoint taken after FIFO evictions, with the pre-eviction trust
// records still in a not-yet-deleted wal.old (the compaction crash
// window). Replaying those records must not re-add evicted headers —
// each carries its insertion index, and the checkpoint's recorded
// insertion count is the replay horizon.
func TestFileBackendTrustEvictionHorizon(t *testing.T) {
	dir := t.TempDir()
	opts := RecoverOptions{Owner: 4, Params: testParams(), TrustCap: 2}
	fb, st := openBackend(t, dir, opts)

	nb := chainFor(t, identity.Deterministic(9, 4), 6, nil)
	for _, b := range nb {
		st.Trust.Add(b.Header.Clone())
	}
	if st.Trust.Len() != 2 || st.Trust.Insertions() != 6 {
		t.Fatalf("live: len=%d inserted=%d", st.Trust.Len(), st.Trust.Insertions())
	}
	if err := fb.Compact(func() (*NodeState, error) { return st, nil }); err != nil {
		t.Fatal(err)
	}
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}

	// Reconstruct the crash window: checkpoint committed, wal.old (with
	// every pre-checkpoint trust record) not yet deleted, plus one
	// post-checkpoint insertion in wal.log.
	extra := chainFor(t, identity.Deterministic(8, 4), 1, nil)[0]
	var old []byte
	for i, b := range nb {
		old = appendTagged(old, 4, walKindTrust, appendWALTrust(nil, int64(i), &b.Header))
	}
	if err := os.WriteFile(filepath.Join(dir, walOldFileName), old, 0o644); err != nil {
		t.Fatal(err)
	}
	cur := appendTagged(nil, 4, walKindTrust, appendWALTrust(nil, 6, &extra.Header))
	if err := os.WriteFile(filepath.Join(dir, walFileName), cur, 0o644); err != nil {
		t.Fatal(err)
	}

	fb2, st2 := openBackend(t, dir, opts)
	defer fb2.Close()
	// Records 0..5 are below the horizon (skipped); record 6 applies,
	// evicting the oldest live header exactly as it would have live.
	ref := NewNodeState(4, 2)
	for _, b := range nb {
		ref.Trust.Add(b.Header.Clone())
	}
	ref.Trust.Add(extra.Header.Clone())
	if !bytes.Equal(stateBytes(t, st2), stateBytes(t, ref)) {
		t.Fatal("capped trust store diverged across the compaction crash window")
	}
	if st2.Trust.Insertions() != 7 {
		t.Fatalf("inserted = %d, want 7", st2.Trust.Insertions())
	}

	// Replant the stale generation against the checkpoint the opener's
	// compaction commits (horizon now 7): every record is below it, so
	// recovery changes nothing.
	want := stateBytes(t, st2)
	if err := fb2.Compact(func() (*NodeState, error) { return st2, nil }); err != nil {
		t.Fatal(err)
	}
	if err := fb2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, walOldFileName), old, 0o644); err != nil {
		t.Fatal(err)
	}
	fb3, st3 := openBackend(t, dir, opts)
	defer fb3.Close()
	if !bytes.Equal(stateBytes(t, st3), want) {
		t.Fatal("stale trust records re-entered the capped store")
	}
}
