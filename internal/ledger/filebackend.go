package ledger

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"time"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/identity"
)

// Data-dir layout. The write-ahead log belongs to the data dir (Log);
// a FileBackend is one owner's view of it and keeps that owner's
// segment and checkpoint (see checkpoint.go):
//
//	wal.log         — current WAL generation: every mutation since the
//	                  last compaction, one CRC-framed record each (see
//	                  wal.go).
//	wal.old         — previous generation, present only inside a
//	                  compaction window (rotation committed, not every
//	                  checkpoint yet); replayed between segment and
//	                  wal.log, and never replaced while it exists.
//	blocks.seg      — an owner's sealed blocks, oldest first, framed as
//	                  WAL block records. Append-only: each block is
//	                  written to it once.
//	checkpoint.2ldg — an owner's last checkpoint: trust cap, H_i, A_i
//	                  and the segment prefix it vouches for, CRC-sealed.
//	                  Always committed by atomic rename; never partial.
//	checkpoint.tmp  — checkpoint being written; garbage after a crash,
//	                  deleted on recovery.
//
// The generations and the segments are also where the owners' blocks
// are read from. Once the commit window that logged a block has
// fsynced, S_i keeps its header hash, body root and where its record
// sits and lets the block go (bodies.go): its record in the generation
// until the compaction that retires the generation copies the record's
// bytes into the segment, its segment record from then on. Every read
// of the block reads the record back through a read-only handle — the
// log's on each live generation (Log.logReader), closed with the
// compaction that deletes wal.old, or the backend's on its segment,
// which it holds open until it closes.
//
// A process opens the log once, OpenLog(dir), and a backend per
// device, Log.OpenBackend: dir/wal.log and dir/wal.old for all of them,
// every record naming its owner, and dir/node-<id>/ for each device's
// segment and checkpoint (and .tmp). Both live drivers lay a data dir
// out so (cluster.Sealer). OpenFileBackend(dir) is the single-device
// form that tests and the benchmark drill use: the same log, and one
// backend whose segment and checkpoint sit beside it in dir, a layout
// the live drivers refuse (FlatDeviceFile). Either way a device
// recovers as its checkpoint and segment plus the generations filtered
// to its records, through the same idempotent replay rules — its
// checkpoint may well be newer than records of its still in the log —
// and Recover writes nothing: once every device has recovered, the
// opener compacts (Log.Compact), so a crash loop cannot grow an
// unbounded replay tail.
//
// Fsync discipline: block records are acknowledged by the fsync of
// the commit window they were logged into (see walwriter.go), shared
// by every owner that logged into it, and that fsync happens before
// Store.Append publishes the block (write-ahead — an accepted block
// survives a crash). Trust, digest and forget records are buffered
// with the rest and ride the next write: a window close, a Flush (a
// cluster.Host's, before it acks a digest on the wire), or a full
// buffer. A process kill loses those logged since the last write,
// a power loss those since the last fsync; either costs re-auditing,
// never data. A segment append is fsynced before the checkpoint that
// records it is written, that checkpoint before the rename that
// commits it, and the rename's directory before the compaction that
// wrote it lets wal.old go.
//
// Compaction is the log's (Log.Compact): rotate once, for every open
// backend that logged since its checkpoint append the blocks its
// segment lacks and commit a checkpoint, drop wal.old. So a block is
// written twice in its life, as a WAL record and as a segment record,
// however many compactions follow: a compaction writes the blocks
// sealed since the last one plus a checkpoint per owner that logged,
// and a device that logged nothing since its checkpoint writes nothing
// (a Silence right after a restart, say). Logged means a record of
// the owner's went to the log since its last checkpoint, or Recover
// found one in the generations or derived a state its checkpoint does
// not hold. Compaction has no state to gather for a backend that is
// closed, and drops the generations that held its records: so whoever
// closes one backend while the others run on first commits that
// owner's whole state (Compact on the backend does just that). An
// owner closed without — or found in the files and never recovered —
// is uncovered, and holds every compaction off until it is recovered
// again.
//
// Torn writes: a crash mid-record leaves wal.log with an incomplete or
// CRC-failing tail. The log cuts it off as it opens and Recover
// reports the cut, so the node restarts exactly at the last durable
// record. Only wal.log may end torn: a failed write poisons the
// generation and the partial frame is truncated away before any
// further record (or the rotation rename) — so replay never has to
// skip mid-file garbage, and a torn wal.old is treated as corruption,
// not tolerated. A segment may end in bytes past the prefix its
// checkpoint records — an append whose checkpoint never committed:
// recovery reads only the prefix, and the next append truncates the
// rest before writing behind it.
const (
	walFileName        = "wal.log"
	walOldFileName     = "wal.old"
	segmentFileName    = "blocks.seg"
	checkpointFileName = "checkpoint.2ldg"
	checkpointTmpName  = "checkpoint.tmp"
	// legacySnapshotName is the whole-state snapshot earlier builds kept
	// where a checkpoint and segment are now. Recovery refuses a dir that
	// holds one rather than start its owner empty.
	legacySnapshotName = "snapshot.2ldg"
)

// FileBackend is the durability layer under one owner's ledger: the
// Journal of its node's structures, writing its records to the data
// dir's Log, plus its own segment and checkpoint, with the compaction
// and recovery lifecycle over them. An in-memory node has none (a nil
// journal everywhere). Safe for concurrent journal use; Compact may run
// concurrently with logging.
type FileBackend struct {
	log  *Log
	dir  string // keeps segment and checkpoint
	owns bool   // OpenFileBackend's: the log is this backend's alone

	// Guarded by log.compactMu: seg is the segment prefix the committed
	// checkpoint records, and segFile the read-only handle on the segment
	// store reads its blocks back through (opened where the segment is
	// first read or written, closed with the backend). store is the S_i
	// Recover returned, the one store that keeps a span of the records
	// this backend logs and whose blocks a commit lets go of (nil once a
	// commit has written another's blocks); it changes under both
	// log.compactMu and log.mu.
	seg     segmentMark
	store   *Store
	segFile *os.File

	// Guarded by log.mu.
	owner        identity.NodeID // from Recover
	recovered    bool
	closed       bool
	report       RecoveryReport
	pending      int          // own block records in the current WAL generation
	windowBlocks int          // those of them in the open commit window
	staged       *block.Block // logged by StageBlock, not yet acknowledged by LogBlock
	stagedAt     int64        // log.fsyncs at that write: durable once it has moved on
	stagedSpan   walSpan      // where its record sits
	logged       bool         // has records no checkpoint of its own covers: set by logLocked and Recover, cleared by a commit
}

// RecoveryReport summarizes what the last Recover read from disk, so
// callers can surface how much state replayed and whether a torn WAL
// tail — bytes written but never fsync-acknowledged — was discarded.
type RecoveryReport struct {
	// SegmentBlocks counts blocks restored from the segment.
	SegmentBlocks int
	// WALBlocks counts block records applied during WAL replay (both
	// generations, duplicates of the segment's excluded).
	WALBlocks int
	// WALBytes is the intact record prefix replayed across both WAL
	// generations: every owner's records in it.
	WALBytes int
	// TornTail reports that wal.log ended in an incomplete or corrupt
	// record when the log opened; TornBytes is the length of the suffix
	// cut off. Torn tails only ever hold unacknowledged data.
	TornTail  bool
	TornBytes int
	// Duration is the wall time spent reading checkpoint and segment and
	// replaying both WAL generations.
	Duration time.Duration
}

// OpenFileBackend opens (creating if needed) dir's log and one backend
// on it whose segment and checkpoint sit beside the log. The backend
// owns the log: it closes the log with itself, its Compact compacts the
// whole log, and its Recover refuses a log holding another owner's
// records. Call Recover next.
func OpenFileBackend(dir string, opts ...BackendOption) (*FileBackend, error) {
	l, err := OpenLog(dir, opts...)
	if err != nil {
		return nil, err
	}
	return &FileBackend{log: l, dir: dir, owns: true}, nil
}

// OpenBackend opens one owner's backend on the log; dir (created if
// needed) keeps that owner's segment and checkpoint. Call Recover next.
// Closing the backend leaves the log open.
func (l *Log) OpenBackend(dir string) (*FileBackend, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ledger: creating data dir: %w", err)
	}
	return &FileBackend{log: l, dir: dir}, nil
}

// FlatDeviceFile names a file of one device's own — its checkpoint, its
// segment or an earlier build's snapshot — that dir keeps directly
// beside its log, as OpenFileBackend lays them out; "" when it keeps
// none.
func FlatDeviceFile(dir string) string {
	for _, name := range []string{checkpointFileName, segmentFileName, legacySnapshotName} {
		if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
			return name
		}
	}
	return ""
}

// Recover rebuilds the node state recorded so far: checkpoint and
// segment first, then WAL replay (a torn tail cut off as the log
// opened); on a fresh backend it returns an empty state. Call it once,
// before attaching the backend as journal and before the node sees
// traffic. With opts.Ring its blocks cost hashing plus one signature
// per replayed chain, its H_i one signature per header
// (RecoverOptions.Ring). It writes nothing of its own — it only
// deletes a checkpoint.tmp an interrupted compaction left — so the
// records it replayed stay in the log until the opener compacts it,
// once every owner has recovered. A backend that owns its log
// (OpenFileBackend) refuses one holding another owner's records with
// ErrWrongOwner.
func (fb *FileBackend) Recover(opts RecoverOptions) (*NodeState, error) {
	l := fb.log
	l.compactMu.Lock()
	defer l.compactMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || fb.closed {
		return nil, ErrBackendClosed
	}
	if fb.recovered {
		return nil, errors.New("ledger: backend already recovered")
	}
	if fb.owns {
		for o := range l.uncovered {
			if o != opts.Owner {
				return nil, fmt.Errorf("%w: the log holds records of %v, recovering %v", ErrWrongOwner, o, opts.Owner)
			}
		}
	}
	defer func() {
		if !fb.recovered {
			fb.closeSegment()
		}
	}()
	// An interrupted compaction never committed its checkpoint.
	_ = os.Remove(filepath.Join(fb.dir, checkpointTmpName))
	// Replay reads the file: records of this owner's still buffered — kept
	// by a close whose write failed — go out first.
	if err := l.writeLocked(); err != nil {
		return nil, err
	}

	start := time.Now()
	cp, err := fb.readCheckpoint(opts)
	if err != nil {
		return nil, err
	}
	st := cp.st
	fb.store = st.Store
	report := RecoveryReport{SegmentBlocks: st.Store.Len(), TornTail: l.torn > 0, TornBytes: int(l.torn)}
	// The trust cap is in force before replay, so FIFO evictions replay
	// exactly as they happened live. A torn tail is tolerated only in
	// wal.log — the generation a crash can tear mid-write; wal.old was
	// synced and repaired before its rotation rename, so a torn record
	// there is corruption that would silently drop every acknowledged
	// record after it. An owner closed with its checkpoint holding all
	// it ever logged has nothing to look for in the generations.
	gens := []string{walOldFileName, walFileName}
	if _, covered := l.covered[opts.Owner]; covered {
		gens = nil
	}
	owned := 0
	for _, name := range gens {
		buf, err := os.ReadFile(filepath.Join(l.dir, name))
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("ledger: reading %s: %w", name, err)
		}
		if name == walFileName {
			// Others may be appending: past goodOff is at most a partial
			// frame awaiting repair.
			buf = buf[:min(int64(len(buf)), l.goodOff)]
		}
		gen := l.oldReader
		if name == walFileName {
			gen = l.logReader
		}
		stats, err := replayWAL(st, buf, opts, name == walFileName, gen)
		if err != nil {
			return nil, fmt.Errorf("ledger: replaying %s: %w", name, err)
		}
		report.WALBlocks += stats.blocks
		report.WALBytes += stats.valid
		owned += stats.owned
	}
	report.Duration = time.Since(start)
	// Records of its own in the generations, or a state that is not the
	// checkpoint's, are what no checkpoint of its own covers yet: the
	// next compaction commits them.
	fb.logged = owned > 0 || cp.recapped
	fb.seg = cp.seg
	fb.owner, fb.report, fb.recovered = opts.Owner, report, true
	delete(l.uncovered, opts.Owner)
	delete(l.covered, opts.Owner)
	l.views = append(l.views, fb)
	return st, nil
}

// readCheckpoint restores what fb.dir holds of opts.Owner besides the
// log — its checkpoint, then the segment prefix that records, whose
// handle stays open as fb.segFile, S_i's to read blocks back through —
// or an empty state for a dir without a checkpoint.
func (fb *FileBackend) readCheckpoint(opts RecoverOptions) (*checkpoint, error) {
	raw, err := os.ReadFile(filepath.Join(fb.dir, checkpointFileName))
	if errors.Is(err, fs.ErrNotExist) {
		if _, err := os.Stat(filepath.Join(fb.dir, legacySnapshotName)); err == nil {
			return nil, fmt.Errorf("ledger: %s holds a %s, the format of an earlier build, which this one does not read",
				fb.dir, legacySnapshotName)
		}
		return &checkpoint{st: NewNodeState(opts.Owner, opts.TrustCap)}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("ledger: reading checkpoint: %w", err)
	}
	cp, err := decodeCheckpoint(raw, opts)
	if err != nil || cp.seg.records == 0 {
		return cp, err
	}
	f, err := os.Open(filepath.Join(fb.dir, segmentFileName))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSegment, err)
	}
	if err := readSegment(f, cp, opts); err != nil {
		f.Close()
		return nil, err
	}
	fb.segFile = f
	return cp, nil
}

// commitState makes st this owner's state on disk besides the log: the
// blocks of S_i its segment lacks are appended and fsynced, then a
// checkpoint recording them commits. Once it has, the S_i Recover
// returned keeps their segment records in place of their log records
// (Store.segmented) — when st holds it. Blocks of another S_i (a shadow
// state, say) leave the recovered one no longer a mirror of the segment:
// first it holds whole again the blocks only the log holds
// (Store.holdWhole), since the compaction lets their generation go, and
// it lets go of no more blocks. A failure leaves the last checkpoint in
// force. Caller holds log.compactMu.
func (fb *FileBackend) commitState(st *NodeState) error {
	logged, whole, err := st.Store.since(fb.seg.records, fb.seg.last)
	if err != nil {
		return err
	}
	seg, recs := fb.seg, []keptBlock(nil)
	if len(logged)+len(whole) > 0 {
		if held := fb.store; held != nil && st.Store != held {
			// No span is handed out from here on (logBlock), so holdWhole
			// finds every one the store keeps. A failed one hands the
			// store back for the next commit to retry.
			fb.setStore(nil)
			if err := held.holdWhole(); err != nil {
				fb.setStore(held)
				return err
			}
		}
		if seg, recs, err = fb.appendSegment(st.Store.Owner(), logged, whole); err != nil {
			return err
		}
	}
	if err := fb.writeCheckpoint(appendCheckpoint(nil, &checkpoint{st: st, seg: seg})); err != nil {
		return err
	}
	fb.seg = seg
	if len(recs) > 0 && st.Store == fb.store {
		fb.store.segmented(recs)
	}
	// The new checkpoint is the one this process reads from here on, so
	// the next commit appends behind its prefix. Whether the rename
	// survives a power loss is up to the directory's fsync: until one
	// succeeds, the commit fails, and the compaction keeps wal.old.
	if err := fb.log.syncDir(fb.dir); err != nil {
		return fmt.Errorf("ledger: syncing checkpoint directory: %w", err)
	}
	return nil
}

// setStore makes s the store logBlock hands spans to. Caller holds
// log.compactMu.
func (fb *FileBackend) setStore(s *Store) {
	fb.log.mu.Lock()
	fb.store = s
	fb.log.mu.Unlock()
}

// closeSegment closes the read handle on the segment; the store reads
// no block back from then on. Caller holds log.compactMu.
func (fb *FileBackend) closeSegment() {
	if fb.segFile != nil {
		fb.segFile.Close()
		fb.segFile = nil
	}
}

// appendSegment writes owner's blocks to the segment behind the prefix
// the checkpoint records — cutting off first whatever an append that
// never committed left past it — and fsyncs them: logged, those only the
// log holds, as their records copied from it (blockRecord.appendTo
// checks each), then whole, encoded. It returns the prefix with the
// blocks in it, which only a checkpoint recording it commits, and what
// S_i keeps of each block once it does. A record the copy refuses fails
// the append, and the segment keeps its committed prefix.
func (fb *FileBackend) appendSegment(owner identity.NodeID, logged []loggedBlock, whole []*block.Block) (segmentMark, []keptBlock, error) {
	seg := fb.seg
	path := filepath.Join(fb.dir, segmentFileName)
	info, err := os.Stat(path)
	switch {
	case errors.Is(err, fs.ErrNotExist) && seg.size == 0:
	case err != nil:
		return segmentMark{}, nil, fmt.Errorf("ledger: statting segment: %w", err)
	case info.Size() < seg.size:
		return segmentMark{}, nil, fmt.Errorf("%w: %d bytes, its checkpoint records %d", ErrBadSegment, info.Size(), seg.size)
	}
	f, err := fb.log.openFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND)
	if err != nil {
		return segmentMark{}, nil, fmt.Errorf("ledger: opening segment: %w", err)
	}
	defer f.Close() // on error paths; the success path closes below
	if fb.segFile == nil {
		// The segment's first write (readCheckpoint opens an existing one):
		// the read-only handle S_i reads its blocks back through.
		r, err := os.Open(path)
		if err != nil {
			return segmentMark{}, nil, fmt.Errorf("ledger: opening segment for reading: %w", err)
		}
		fb.segFile = r
		if fb.store != nil {
			fb.store.readBlocksFrom(r)
		}
	}
	if info != nil && info.Size() > seg.size {
		if err := f.Truncate(seg.size); err != nil {
			return segmentMark{}, nil, fmt.Errorf("ledger: truncating uncommitted segment tail: %w", err)
		}
	}
	total, n := 0, len(logged)+len(whole)
	for _, w := range logged {
		total += int(w.end - w.start)
	}
	for _, b := range whole {
		total += walHeaderLen + b.WireSize() + walCRCLen
	}
	buf, enc := make([]byte, 0, min(total, 128<<10)), []byte(nil)
	recs, end := make([]keptBlock, n), seg.size
	for i := range n {
		at := len(buf)
		if i < len(logged) {
			w := &logged[i]
			ref := block.Ref{Node: owner, Seq: seg.records + uint32(i)}
			if buf, err = w.record(ref).appendTo(buf, w.root); err != nil {
				return segmentMark{}, nil, err
			}
			recs[i] = keptBlock{hash: w.hash, root: w.root}
		} else {
			b := whole[i-len(logged)]
			enc = block.AppendEncode(enc[:0], b)
			buf = appendWALRecord(buf, walKindBlock, enc)
			recs[i] = keep(b, 0)
		}
		end += int64(len(buf) - at)
		recs[i].end = end
		if len(buf) < 64<<10 && i < n-1 {
			continue
		}
		if err := writeFull(f, buf); err != nil {
			return segmentMark{}, nil, fmt.Errorf("ledger: appending to segment: %w", err)
		}
		seg.size += int64(len(buf))
		buf = buf[:0]
	}
	if err := f.Sync(); err != nil {
		return segmentMark{}, nil, fmt.Errorf("ledger: syncing segment: %w", err)
	}
	if err := f.Close(); err != nil {
		return segmentMark{}, nil, fmt.Errorf("ledger: closing segment: %w", err)
	}
	seg.records += uint32(n)
	seg.last = recs[n-1].hash
	return seg, recs, nil
}

// writeCheckpoint commits raw as this owner's checkpoint: written to
// checkpoint.tmp, fsynced, renamed over the last one. The caller
// fsyncs the dir.
func (fb *FileBackend) writeCheckpoint(raw []byte) error {
	tmp := filepath.Join(fb.dir, checkpointTmpName)
	f, err := fb.log.openFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC)
	if err != nil {
		return fmt.Errorf("ledger: creating checkpoint: %w", err)
	}
	err = writeFull(f, raw)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fb.log.rename(tmp, filepath.Join(fb.dir, checkpointFileName))
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("ledger: committing checkpoint: %w", err)
	}
	return nil
}

// writeFull writes p to w whole: a short count without an error is
// io.ErrShortWrite.
func writeFull(w io.Writer, p []byte) error {
	n, err := w.Write(p)
	if err == nil && n < len(p) {
		err = io.ErrShortWrite
	}
	return err
}

// logLocked buffers one record of this owner's — a record that is not a
// block tagged as its own — into the open commit window. Caller holds
// log.mu.
func (fb *FileBackend) logLocked(kind byte, payload []byte) error {
	if fb.closed {
		return ErrBackendClosed
	}
	if !fb.recovered {
		return errors.New("ledger: journal call before Recover")
	}
	if kind != walKindBlock {
		kind |= walOwnerTag
	}
	if err := fb.log.appendLocked(kind, payload); err != nil {
		return err
	}
	fb.logged = true
	return nil
}

// stageLocked buffers b's record and counts it into the open window,
// and returns where the record sits in the current generation: behind
// what the generation and the buffer hold, a place no later write
// moves, since a failed one fails b with its window. A full buffer is
// written, and a failed write fails the window, b with it.
func (fb *FileBackend) stageLocked(b *block.Block) (walSpan, error) {
	l := fb.log
	l.pscratch = block.AppendEncode(l.pscratch[:0], b)
	span := walSpan{gen: l.logReader, start: l.goodOff + int64(len(l.buf))}
	if err := fb.logLocked(walKindBlock, l.pscratch); err != nil {
		return walSpan{}, err
	}
	span.end = l.goodOff + int64(len(l.buf))
	fb.pending++
	fb.windowBlocks++
	return span, l.spillLocked()
}

// StageBlock logs b's record into the open commit window and returns
// without writing it (unless the log's buffer is full) or waiting for
// an fsync: the Log.Commit that closes the window writes and fsyncs it.
// A LogBlock of the same block afterwards logs nothing: it only
// acknowledges the window's fsync, closing the window itself if no
// Commit has. A driver that stages a whole round of blocks, commits
// once and then appends them to their stores pays one write and one
// fsync for the round, and no block of it is visible before it is
// durable.
func (fb *FileBackend) StageBlock(b *block.Block) error {
	l := fb.log
	l.mu.Lock()
	defer l.mu.Unlock()
	span, err := fb.stageLocked(b)
	if err != nil {
		return err
	}
	fb.staged, fb.stagedAt, fb.stagedSpan = b, l.fsyncs, span
	return nil
}

// LogBlock acknowledges a block record before Store.Append publishes
// the block — write-ahead, the block is durable first. A record
// StageBlock logged into a window committed since returns at once.
// Otherwise LogBlock logs the record into the open window (unless
// StageBlock already has, in a window that did not fail) and closes
// the window itself, under the log's mutex. An error here fails the
// append. It is the journal's logBlock for a caller that appends to no
// store.
func (fb *FileBackend) LogBlock(b *block.Block) error {
	_, err := fb.logBlock(nil, b)
	return err
}

// logBlock is LogBlock as s's Append journals it (Journal). Once b is
// durable it returns the span of b's record too when s is the store
// Recover returned (see store) and the generation holding it has a read
// handle, and the zero span otherwise.
func (fb *FileBackend) logBlock(s *Store, b *block.Block) (walSpan, error) {
	l := fb.log
	l.mu.Lock()
	defer l.mu.Unlock()
	durable := fb.staged == b && l.fsyncs > fb.stagedAt
	span := fb.stagedSpan
	if fb.staged != b {
		var err error
		if span, err = fb.stageLocked(b); err != nil {
			return walSpan{}, err
		}
	}
	fb.staged, fb.stagedSpan = nil, walSpan{}
	if !durable {
		if err := l.commitLocked(); err != nil {
			return walSpan{}, err
		}
	}
	if s != fb.store {
		return walSpan{}, nil
	}
	return span, nil
}

// payloadLocked starts a lazy record's payload in the log's scratch:
// the owner tag.
func (fb *FileBackend) payloadLocked() []byte {
	return binary.LittleEndian.AppendUint32(fb.log.pscratch[:0], uint32(fb.owner))
}

// logLazy buffers a trust, digest or forget record whose payload build
// appends (no write of its own; see the discipline above). It fails
// only when the log takes no records, an error also kept sticky for
// Sync; a record lost to storage later is reported there alone.
func (fb *FileBackend) logLazy(kind byte, build func(dst []byte) []byte) error {
	l := fb.log
	l.mu.Lock()
	defer l.mu.Unlock()
	l.pscratch = build(fb.payloadLocked())
	if err := fb.logLocked(kind, l.pscratch); err != nil {
		if l.deferred == nil && !errors.Is(err, ErrBackendClosed) {
			l.deferred = err
		}
		return err
	}
	// A write failing here fails the window's blocks, not this record,
	// which stays buffered (writeLocked).
	_ = l.spillLocked()
	return nil
}

// LogTrust buffers a trust-store record.
func (fb *FileBackend) LogTrust(h *block.Header, inserted int64) error {
	return fb.logLazy(walKindTrust, func(dst []byte) []byte { return appendWALTrust(dst, inserted, h) })
}

// LogDigest buffers a digest-cache record.
func (fb *FileBackend) LogDigest(from identity.NodeID, d digest.Digest) error {
	return fb.logLazy(walKindDigest, func(dst []byte) []byte { return appendWALDigest(dst, from, d) })
}

// LogForget buffers a digest-cache removal record.
func (fb *FileBackend) LogForget(from identity.NodeID) error {
	return fb.logLazy(walKindForget, func(dst []byte) []byte {
		return binary.LittleEndian.AppendUint32(dst, uint32(from))
	})
}

// PendingBlocks reports this owner's block records in the current WAL
// generation.
func (fb *FileBackend) PendingBlocks() int {
	fb.log.mu.Lock()
	defer fb.log.mu.Unlock()
	return fb.pending
}

// RecoveryReport returns what the last Recover read from disk; the
// zero report before Recover has run.
func (fb *FileBackend) RecoveryReport() RecoveryReport {
	fb.log.mu.Lock()
	defer fb.log.mu.Unlock()
	return fb.report
}

// Compact commits this owner's state, from gather, to its segment and
// checkpoint. A backend that owns its log compacts the whole of it
// (Log.Compact): the log rotates and wal.old goes once the checkpoint
// is committed. Any other cannot retire generations that hold other
// owners' records, so only its own segment and checkpoint are written —
// which is what has to happen before it is closed for good: with no
// block sealed since the last compaction a checkpoint alone, and with
// nothing logged since the last checkpoint nothing at all (gather is
// not called, no file is touched). gather must return a consistent
// view of the current state,
// continuing the blocks the segment holds; mutations logged meanwhile
// land in the WAL and replay idempotently on recovery. A failure is
// returned and also kept as the sticky error Sync and Close report.
func (fb *FileBackend) Compact(gather func() (*NodeState, error)) error {
	only := fb
	if fb.owns {
		only = nil
	}
	return fb.log.compact(only, func(identity.NodeID) (*NodeState, error) { return gather() })
}

// Sync closes the log's current commit window and surfaces its sticky
// error (see Log.Sync): a trust, digest or forget record lost to
// storage is reported here and on Close.
func (fb *FileBackend) Sync() error { return fb.log.Sync() }

// Flush writes the log's buffered records without an fsync (see
// Log.Flush), so a process kill no longer loses them: what a node calls
// before it acknowledges a digest on the wire.
func (fb *FileBackend) Flush() error { return fb.log.Flush() }

// Close commits any open window and closes the backend; a backend
// that owns its log closes the log with it. Closing one that has
// logged since its last checkpoint (or recovered records of its own
// from the log that no checkpoint has taken in since), on a log it
// does not own, leaves its owner uncovered; any other leaves it
// covered, so its next Recover skips the generations. The store
// Recover returned reads no segmented block back afterwards (the blocks
// only the log holds, until the log closes). Further calls return
// ErrBackendClosed.
func (fb *FileBackend) Close() error {
	l := fb.log
	if fb.owns {
		return l.Close()
	}
	l.compactMu.Lock()
	defer l.compactMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || fb.closed {
		return ErrBackendClosed
	}
	err := l.commitLocked()
	fb.closed = true
	fb.closeSegment()
	l.views = slices.DeleteFunc(l.views, func(v *FileBackend) bool { return v == fb })
	if !fb.recovered {
		return err
	}
	if fb.logged {
		l.uncovered[fb.owner] = struct{}{}
	} else {
		l.covered[fb.owner] = struct{}{}
	}
	return err
}
