package ledger

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"syscall"

	"github.com/twoldag/twoldag/internal/identity"
	"github.com/twoldag/twoldag/internal/par"
)

// Group commit: the classic storage-engine answer to fsync dominating
// a write-ahead log (etcd, Pebble, every production WAL). The fsync
// that acknowledges block records covers a whole *commit window* —
// every record logged since the last fsync, whichever owner of the log
// logged it — so batched writers share one disk flush instead of
// paying one each. The log belongs to the data dir, not to a device
// (see Log): the devices one process hosts write to one file, and a
// window is whatever all of them logged between two of its fsyncs.
//
// The write(2) is shared the same way. Every record is framed into one
// buffer the log holds, in log order, and the buffer goes to wal.log
// in one write when something needs its bytes in the kernel: every
// window close (Commit, a LogBlock of an unstaged block, a rotation,
// Sync, Close), Flush, and the buffer reaching walBufferLimit. The rule
// is that a record reaches the kernel before anything that vouches for
// it can outlive the process: a window's fsync vouches for its blocks,
// and a cluster.Host's wire-level DigestAck for a digest, which is why
// the Host flushes before it acks. An in-process acknowledgement dies
// with the process and needs no write. So a process kill loses at most
// the trust, digest and forget records logged since the last write —
// never an acknowledged block or a wire-acknowledged digest. Records
// reach wal.log whole and in log order, so its bytes do not depend on
// where the writes fell.
//
// One rule decides when a block is durable: the fsync of the window it
// was logged into, and no block is appended to a store before that
// fsync has returned. A driver forms the window itself: StageBlock
// every block of a round, Commit once, then append the blocks to their
// stores (the LogBlock inside Store.Append finds the record staged and
// durable, and returns). That is one fsync per round however many
// devices sealed in it — and one write, or one per walBufferLimit of
// records — and a window count that is a function of the batch and not
// of goroutine timing. A LogBlock of a block nobody staged closes its
// own window, under the log's mutex, before it returns.
//
// Crash safety of an open window: records written but not yet fsynced
// were never acknowledged. The kernel may persist them out of order,
// but replay stops at the first incomplete or corrupt record, so any
// record the crash orphaned behind a hole is unreachable — recovery
// sees a clean prefix, every fsync-acknowledged record of which is
// intact (they all precede the window). Nothing is ever half-applied.
// A write or an fsync that fails fails every block record of the open
// window, written or buffered, as if the window had never been opened
// (failWindowLocked); the lazy records still buffered survive it and go
// out ahead of the next write.

// CommitObserver receives one callback per WAL commit window, after
// its fsync returned: how many block records the window acknowledged
// and how many WAL bytes it made durable. Implementations must be
// cheap and safe for concurrent use (metrics.EventCounters is one).
type CommitObserver interface {
	OnWALCommit(blocks int, bytes int64)
}

// BackendOption configures OpenLog and OpenFileBackend.
type BackendOption func(*Log)

// WithCommitObserver attaches a per-commit-window callback.
func WithCommitObserver(o CommitObserver) BackendOption {
	return func(l *Log) { l.obs = o }
}

// WALFile is what the log asks of a file it writes: a WAL generation,
// a segment or a checkpoint. *os.File is the one production
// implementation; the interface is the seam under the log where a test
// fails or shortens a write and fails an fsync or a truncation.
type WALFile interface {
	io.WriteCloser
	Sync() error
	Truncate(size int64) error
}

// WithWALFile has the log, and every backend on it, write through
// wrap(f) for every file f they open: WAL generations, segments and
// checkpoints. For fault-injection tests.
func WithWALFile(wrap func(WALFile) WALFile) BackendOption {
	return func(l *Log) { l.wrap = wrap }
}

// Log is one data dir's write-ahead log: the wal.log/wal.old
// generations, the commit windows over them and the compaction that
// retires them. It serves the FileBackends opened on it — one per
// device a live driver runs (OpenBackend, in dir/node-<id>), or the
// single device OpenFileBackend keeps beside it, the form tests and the
// benchmark drill use — and each of those is a Journal for its own
// node's structures and keeps its own segment and checkpoint. Every
// record that is not a block names its owner (see wal.go).
// Safe for concurrent use by all of them.
type Log struct {
	dir     string
	obs     CommitObserver
	wrap    func(WALFile) WALFile               // nil outside tests
	rename  func(oldpath, newpath string) error // os.Rename outside tests: rotations and checkpoint commits
	syncDir func(dir string) error              // the package's syncDir outside tests: every directory fsync

	// compactMu is held for the length of a compaction, and by a backend
	// while it recovers or closes: the set of backends a compaction
	// commits does not change under it, nor do the files a recovery
	// reads. Taken before mu.
	compactMu sync.Mutex

	mu        sync.Mutex
	f         WALFile        // wal.log, append-only
	buf       []byte         // framed records not yet written, in log order: they go behind goodOff (writeLocked)
	bufBlocks int            // block records among them
	pscratch  []byte         // payload scratch, reused under mu
	views     []*FileBackend // recovered and not yet closed
	closed    bool
	deferred  error // sticky lazy-record or compaction error (see Sync)
	// failed is the error of a write outside a window close that failed
	// the window's block records: the close of that window fails with it.
	failed error

	// logReader and oldReader are read-only handles on wal.log and
	// wal.old, which the stores read back the blocks only the log holds
	// through (loggedBlock): one per live generation, nil where it could
	// not be opened (its blocks stay whole in their stores). A rotation
	// makes the one on wal.log the one on wal.old, and the compaction
	// that deletes wal.old closes it as it ends, once every store reading
	// through it keeps its blocks' segment records instead.
	logReader, oldReader *os.File

	// hasOld says wal.old exists: a compaction rotated and has not yet
	// committed every checkpoint that lets it go. Until one does, nothing
	// rotates again — the rename would replace the only copy of records
	// no segment or checkpoint holds.
	hasOld bool
	// rotated says a rotation's rename and new wal.log may not yet have
	// survived a power loss: the data dir has not been fsynced since.
	// Every window close with records to acknowledge fsyncs it after
	// wal.log (commitLocked) until one succeeds, and no record of the
	// new generation is acknowledged before.
	rotated bool
	// uncovered owners have records in the generations that no
	// checkpoint is known to hold and no open backend could gather —
	// found in the files as the log opened and not yet recovered, or
	// closed with records newer than their checkpoint: while there is
	// one, compaction leaves the generations alone. covered owners closed
	// with their checkpoint holding all they ever logged here: their next
	// Recover need not read the generations.
	uncovered, covered map[identity.NodeID]struct{}

	// goodOff is the byte length of wal.log's known-intact record
	// prefix; dirty marks that a failed write may have left a partial
	// frame after it. Every write first repairs (truncates back to
	// goodOff), whichever owner's write failed and whichever writes
	// next, so an fsynced block record is never preceded by garbage —
	// replay stops at the first corrupt record, and a block record
	// stranded behind one would be acknowledged-then-lost. broken, once
	// set, fails every repair: the handle has lost its wal.log.
	goodOff int64
	dirty   bool
	broken  error
	// torn is the byte length of the torn tail cut off wal.log as the
	// log opened, which every Recover reports.
	torn int64

	// Commit-window state: syncedOff is the prefix the last successful
	// fsync acknowledged; (syncedOff, goodOff] and the buffer are the
	// open window, and each view counts the block records it has in it.
	syncedOff int64
	fsyncs    int64 // commit windows closed since open
}

// OpenLog opens (creating if needed) dir's log: OpenBackend gives each
// owner its view. What a crash tore off the end of wal.log is cut away
// here, before anybody appends behind it, and every owner found in the
// generations counts as uncovered until its backend has recovered. A
// generation holding a record an earlier build wrote without its
// owner's tag is refused.
func OpenLog(dir string, opts ...BackendOption) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ledger: creating data dir: %w", err)
	}
	l := &Log{
		dir: dir, rename: os.Rename, syncDir: syncDir,
		uncovered: make(map[identity.NodeID]struct{}),
		covered:   make(map[identity.NodeID]struct{}),
	}
	for _, o := range opts {
		o(l)
	}
	var err error
	if l.f, err = l.openGeneration(0); err != nil {
		return nil, fmt.Errorf("ledger: opening WAL: %w", err)
	}
	l.logReader, _ = os.Open(filepath.Join(dir, walFileName)) // nil on failure: see logReader
	info, err := os.Stat(filepath.Join(dir, walFileName))
	if err == nil {
		l.goodOff = info.Size()
		// Any doubt counts as a wal.old: the log then never rotates over it.
		_, oldErr := os.Stat(filepath.Join(dir, walOldFileName))
		if l.hasOld = !errors.Is(oldErr, fs.ErrNotExist); l.hasOld {
			l.oldReader, _ = os.Open(filepath.Join(dir, walOldFileName)) // as logReader
		}
		err = l.scanOwners()
	}
	if err != nil {
		l.closeReaders()
		l.f.Close()
		return nil, fmt.Errorf("ledger: reading WAL: %w", err)
	}
	l.syncedOff = l.goodOff
	return l, nil
}

// openGeneration opens wal.log for appending behind the seam.
func (l *Log) openGeneration(flag int) (WALFile, error) {
	return l.openFile(filepath.Join(l.dir, walFileName), os.O_CREATE|os.O_WRONLY|os.O_APPEND|flag)
}

// openFile opens a file of the data dir for writing behind the seam.
func (l *Log) openFile(path string, flag int) (WALFile, error) {
	f, err := os.OpenFile(path, flag, 0o644)
	if err != nil {
		return nil, err
	}
	if l.wrap != nil {
		return l.wrap(f), nil
	}
	return f, nil
}

// scanOwners reads both generations as the log opens: every owner with
// a record in them is uncovered until it recovers, and a torn tail of
// wal.log — unacknowledged by definition — is truncated before
// anything is appended behind it. Damage inside wal.old is left for
// Recover to refuse.
func (l *Log) scanOwners() error {
	for _, name := range []string{walOldFileName, walFileName} {
		buf, err := os.ReadFile(filepath.Join(l.dir, name))
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
		off := 0
		for {
			rec, n, err := scanWALRecord(buf[off:])
			if err != nil {
				break
			}
			if rec.kind != walKindBlock && rec.kind&walOwnerTag == 0 {
				return fmt.Errorf("%s holds a record of kind %d at offset %d without its owner's tag, the format of an earlier build, which this one does not read",
					name, rec.kind, off)
			}
			if owner, ok := rec.owner(); ok {
				l.uncovered[owner] = struct{}{}
			}
			off += n
		}
		if name == walFileName && off < len(buf) {
			if err := l.f.Truncate(int64(off)); err != nil {
				return err
			}
			l.goodOff, l.torn = int64(off), int64(len(buf)-off)
		}
	}
	return nil
}

// closeReaders closes the read handles on both generations: no store
// reads a block back from the log from then on. Caller holds l.mu, or
// has the log to itself.
func (l *Log) closeReaders() {
	for _, r := range []*os.File{l.logReader, l.oldReader} {
		if r != nil {
			r.Close()
		}
	}
	l.logReader, l.oldReader = nil, nil
}

// PendingBlocks reports the most block records any one owner has in
// the current generation — the compaction trigger of the whole log.
func (l *Log) PendingBlocks() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	most := 0
	for _, v := range l.views {
		most = max(most, v.pending)
	}
	return most
}

// Uncovered lists, ascending, the owners that have records in the log
// no checkpoint is known to hold and no open backend could gather (see
// the field): while there is one, Compact leaves the generations alone.
func (l *Log) Uncovered() []identity.NodeID {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Sorted(maps.Keys(l.uncovered))
}

// syncDir fsyncs a directory so renames and truncations in it are
// durable. A filesystem that does not support directory fsync (EINVAL)
// counts as success.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if errors.Is(err, syscall.EINVAL) {
		return nil
	}
	return err
}

// repairLocked truncates a poisoned tail — the partial frame a failed
// write may have left past goodOff — back to the last intact record
// boundary. Until it succeeds no further record may be appended: a
// record behind garbage is unreachable to replay, and for a block
// record that would break the write-ahead guarantee (fsync-acknowledged
// yet lost on recovery). Caller holds l.mu.
func (l *Log) repairLocked() error {
	if l.broken != nil {
		return l.broken
	}
	if !l.dirty {
		return nil
	}
	if err := l.f.Truncate(l.goodOff); err != nil {
		return fmt.Errorf("ledger: truncating partial WAL record: %w", err)
	}
	l.dirty = false
	return nil
}

// walBufferLimit is the buffer size at which the log writes it without
// waiting for a window close: one write per this many bytes of records
// at most, and a bound on the memory the buffer holds.
const walBufferLimit = 64 << 10

// appendLocked frames one record into the buffer. It fails only when
// the log takes no records: closed, or without a current generation.
// Caller holds l.mu.
func (l *Log) appendLocked(kind byte, payload []byte) error {
	if l.closed {
		return ErrBackendClosed
	}
	if l.broken != nil {
		return l.broken
	}
	l.buf = appendWALRecord(l.buf, kind, payload)
	if kind == walKindBlock {
		l.bufBlocks++
	}
	return nil
}

// spillLocked writes the buffer once it has reached walBufferLimit.
// Caller holds l.mu.
func (l *Log) spillLocked() error {
	if len(l.buf) < walBufferLimit {
		return nil
	}
	return l.writeLocked()
}

// writeLocked writes the buffer behind goodOff in one write, repairing
// any poisoned tail first. A write that fails fails the open window's
// block records (failWindowLocked) — and, outside a window close, the
// close of that window too (l.failed) — while the buffered lazy records
// stay buffered, to go out ahead of the next write. A repair that fails
// leaves nowhere intact to write them: they are dropped and kept as the
// sticky error Sync and Close report. Caller holds l.mu.
func (l *Log) writeLocked() error {
	err := l.repairLocked()
	lost := err != nil
	if !lost {
		if len(l.buf) == 0 {
			return nil
		}
		if err = writeFull(l.f, l.buf); err == nil {
			l.goodOff += int64(len(l.buf))
			l.buf, l.bufBlocks = l.buf[:0], 0
			return nil
		}
		// A write can fail after writing some bytes (ENOSPC, I/O error):
		// everything past goodOff is garbage until repaired.
		l.dirty = true
		err = fmt.Errorf("ledger: writing WAL: %w", err)
	}
	if l.failWindowLocked() > 0 && l.failed == nil {
		l.failed = err
	}
	if lost && len(l.buf) > 0 {
		l.buf = l.buf[:0]
		if l.deferred == nil {
			l.deferred = err
		}
	}
	return err
}

// failWindowLocked fails every block record of the open window, whoever
// logged it: each leaves its owner's pending count and stops counting
// as staged, so nothing of the window is appended to a store. The
// records the window already wrote go with the unacknowledged region
// past syncedOff, which the next write truncates away; those still
// buffered leave the buffer, its lazy records staying in order. It
// returns how many block records failed. Caller holds l.mu.
func (l *Log) failWindowLocked() int {
	blocks := 0
	for _, v := range l.views {
		blocks += v.windowBlocks
		v.pending -= v.windowBlocks
		v.windowBlocks = 0
		v.staged = nil
	}
	if blocks > l.bufBlocks {
		l.goodOff, l.dirty = l.syncedOff, true
	}
	if l.bufBlocks > 0 {
		l.buf, l.bufBlocks = lazyRecords(l.buf), 0
	}
	return blocks
}

// lazyRecords filters the block records out of a run of framed records,
// in place, keeping the others in order.
func lazyRecords(buf []byte) []byte {
	out := buf[:0]
	for off := 0; off < len(buf); {
		n := walHeaderLen + int(binary.LittleEndian.Uint32(buf[off+1:])) + walCRCLen
		if buf[off] != walKindBlock {
			out = append(out, buf[off:off+n]...)
		}
		off += n
	}
	return out
}

// commitLocked closes the current commit window: write the buffer and
// fsync everything past syncedOff — and, after a rotation, the data dir
// until that succeeds once, since records in a wal.log whose directory
// entry a power loss may take are not durable either. On fsync failure
// the durability of the whole unsynced region is unknown, so it is
// poisoned wholesale — goodOff retreats to the last acknowledged fsync
// and the next write truncates the region away — and the window fails
// (failWindowLocked), as it does when the write fails. A window an
// earlier write already failed (l.failed) fails again here, taking what
// was logged into it since: the close reports it, and commits only the
// lazy records left. Caller holds l.mu.
func (l *Log) commitLocked() error {
	failed := l.failed
	if failed != nil {
		l.failWindowLocked()
		l.failed = nil
	}
	err := l.writeLocked()
	if err == nil && l.goodOff == l.syncedOff {
		return failed // nothing written since the last fsync
	}
	if err == nil {
		if err = l.f.Sync(); err != nil {
			err = fmt.Errorf("ledger: syncing WAL: %w", err)
		} else if l.rotated {
			if err = l.syncDir(l.dir); err != nil {
				err = fmt.Errorf("ledger: syncing data dir after WAL rotation: %w", err)
			}
			l.rotated = err != nil
		}
		if err != nil {
			l.goodOff, l.dirty = l.syncedOff, true
			l.failWindowLocked()
		}
	}
	if err != nil {
		l.failed = nil // this close reports it
		return err
	}
	blocks := 0
	for _, v := range l.views {
		blocks += v.windowBlocks
		v.windowBlocks = 0
	}
	bytes := l.goodOff - l.syncedOff
	l.syncedOff = l.goodOff
	l.fsyncs++
	if l.obs != nil {
		l.obs.OnWALCommit(blocks, bytes)
	}
	return failed
}

// Commit closes the current commit window, writing the buffer and
// fsyncing every record logged since the last fsync: the
// acknowledgement point of a driver that staged a round of blocks; a
// cheap no-op when nothing was logged. A failed write or fsync, here or
// earlier in the window, fails every block record of the window, and
// Commit reports it. Unlike Sync it does not surface (or clear) sticky
// errors — it is a hot-path call.
func (l *Log) Commit() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrBackendClosed
	}
	return l.commitLocked()
}

// Sync closes the current commit window (writing and fsyncing anything
// logged) and surfaces any sticky lazy-record or compaction error
// (clearing it).
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrBackendClosed
	}
	cerr := l.commitLocked()
	err := l.deferred
	l.deferred = nil
	if err == nil {
		err = cerr
	}
	return err
}

// Flush writes every buffered record to wal.log without an fsync: a
// process kill no longer loses them, power loss still may. A node that
// acknowledges a digest on the wire flushes first. A failed write fails
// the open window as it would at its close (see writeLocked).
func (l *Log) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrBackendClosed
	}
	return l.writeLocked()
}

// rotateLocked closes the current WAL generation as wal.old and opens
// a fresh wal.log. The generation is repaired before the rename, so
// wal.old never carries a partial frame — which is what entitles
// recovery to treat a torn wal.old as corruption rather than a crash
// artifact. A rename that fails changes nothing: the log keeps
// appending to the generation it has. The directory fsync that makes
// the rename and the new wal.log durable is left to the next window
// close (see rotated), the first thing that needs it. Caller holds l.mu
// and has checked that no wal.old exists.
func (l *Log) rotateLocked() error {
	// Closing the commit window first acknowledges (or fails) every
	// staged record before the generation is sealed as wal.old.
	if err := l.commitLocked(); err != nil {
		return fmt.Errorf("ledger: syncing WAL for rotation: %w", err)
	}
	walPath, oldPath := filepath.Join(l.dir, walFileName), filepath.Join(l.dir, walOldFileName)
	if err := l.rename(walPath, oldPath); err != nil {
		return fmt.Errorf("ledger: rotating WAL: %w", err)
	}
	f, err := l.openGeneration(os.O_EXCL)
	if err != nil {
		// The handle now appends to a file recovery reads as wal.old,
		// strictly, and a compaction would delete: take no more records.
		l.hasOld = true
		l.broken = fmt.Errorf("ledger: opening new WAL generation: %w", err)
		return l.broken
	}
	_ = l.f.Close() // synced above; nothing left for Close to lose
	l.f = f
	r, _ := os.Open(walPath) // nil on failure: see logReader
	l.logReader, l.oldReader = r, l.logReader
	l.hasOld = true
	l.goodOff, l.syncedOff, l.dirty = 0, 0, false
	for _, v := range l.views {
		v.pending = 0
	}
	l.rotated = true
	return nil
}

// Compact folds the log into the segments and checkpoints of every
// open backend:
//
//  1. under mu: fsync wal.log, rename it to wal.old, start an empty
//     generation (every owner's pending = 0);
//  2. outside mu: gather the current state of each owner that logged
//     since its checkpoint, then, owners side by side, append the
//     blocks its segment lacks and fsync them, and commit a checkpoint
//     recording them (tmp + fsync + rename). An owner that logged
//     nothing is skipped: its checkpoint already holds every record of
//     its in wal.old;
//  3. delete wal.old, and fsync the data dir best-effort: a wal.old a
//     power loss brings back holds only records the checkpoints of step
//     2 hold too, which replay idempotently, and the log does not
//     rotate over it (see hasOld) until a compaction deletes it again.
//
// Logging continues into the new generation throughout. Records
// gathered into a checkpoint or segment AND logged to the new
// generation replay idempotently; a crash at any step recovers
// (wal.old replays between segment and wal.log; checkpoint.tmp is
// discarded, segment bytes past the checkpoint's record ignored and
// later cut). When step 2 fails wal.old stays, and the next Compact
// retries the checkpoints without rotating: a generation only goes once
// checkpoints hold every record in it. A failure is returned and kept
// as the sticky error Sync and Close report. Compact returns nil
// without compacting, leaving it to the next trigger, when a
// compaction is in flight, no backend is open to gather from, a block
// is staged but not yet appended to its store (the checkpoint would
// miss a record the rotation retires), or an owner is uncovered.
func (l *Log) Compact(gather func(owner identity.NodeID) (*NodeState, error)) error {
	return l.compact(nil, gather)
}

// compact is Compact, or with only set the checkpoint half of it for
// that one view: its owner's state into its own segment and
// checkpoint, no generation touched — and that one waits its turn
// instead of leaving it to a next trigger, because the caller is about
// to close the view. A view that logged nothing since its checkpoint
// has nothing to commit: compact returns nil and touches no file.
func (l *Log) compact(only *FileBackend, gather func(owner identity.NodeID) (*NodeState, error)) (err error) {
	if only != nil {
		l.compactMu.Lock()
	} else if !l.compactMu.TryLock() {
		return nil
	}
	defer l.compactMu.Unlock()
	l.mu.Lock()
	if l.closed || (only != nil && only.closed) {
		l.mu.Unlock()
		return ErrBackendClosed
	}
	busy := len(l.views) == 0 || (only == nil && len(l.uncovered) > 0)
	for _, v := range l.views {
		busy = busy || v.staged != nil
	}
	if busy || (only != nil && !only.logged) {
		l.mu.Unlock()
		return nil
	}
	var views []*FileBackend
	if only != nil {
		views = []*FileBackend{only}
	} else {
		if !l.hasOld {
			err = l.rotateLocked()
		}
		for _, v := range l.views {
			if v.logged {
				views = append(views, v)
			}
		}
	}
	errs := make([]error, len(views))
	if err == nil {
		for _, v := range views {
			v.logged = false // whatever it logs from here on is newer than the checkpoint
		}
	}
	l.mu.Unlock()
	defer func() {
		l.mu.Lock()
		for i, verr := range errs {
			views[i].logged = views[i].logged || verr != nil
		}
		if err != nil && l.deferred == nil {
			l.deferred = err
		}
		l.mu.Unlock()
	}()
	if err != nil {
		return err
	}
	// gather runs here, not in the workers, so it does not escape: the
	// Compact of a clean backend allocates nothing.
	sts := make([]*NodeState, len(views))
	for i, v := range views {
		if sts[i], errs[i] = gather(v.owner); errs[i] != nil {
			errs[i] = fmt.Errorf("ledger: gathering state for compaction: %w", errs[i])
		}
	}
	par.ForEach(len(views), func(i int) {
		if errs[i] == nil {
			errs[i] = views[i].commitState(sts[i])
		}
	})
	if err = errors.Join(errs...); err != nil || only != nil {
		return err
	}
	if err := os.Remove(filepath.Join(l.dir, walOldFileName)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("ledger: removing rotated WAL: %w", err)
	}
	_ = l.syncDir(l.dir) // best-effort: see step 3 above
	l.mu.Lock()
	l.hasOld = false
	old := l.oldReader
	l.oldReader = nil
	l.mu.Unlock()
	if old != nil {
		// Every store that read through it keeps segment records now
		// (commitState): a Get whose read it fails reads those (Store.moved).
		old.Close()
	}
	return nil
}

// Close commits any open window and closes the WAL; every backend
// still open on the log is closed with it. It waits out a compaction in
// flight. Further calls return ErrBackendClosed.
func (l *Log) Close() error {
	l.compactMu.Lock()
	defer l.compactMu.Unlock()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrBackendClosed
	}
	err := l.commitLocked()
	l.closed = true
	for _, v := range l.views {
		v.closeSegment()
	}
	l.closeReaders()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = l.deferred
	}
	l.deferred = nil
	l.mu.Unlock()
	if err != nil {
		return fmt.Errorf("ledger: closing backend: %w", err)
	}
	return nil
}
