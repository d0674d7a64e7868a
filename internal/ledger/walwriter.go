package ledger

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"github.com/twoldag/twoldag/internal/identity"
	"github.com/twoldag/twoldag/internal/par"
)

// Group commit: the classic storage-engine answer to fsync dominating
// a write-ahead log (etcd, Pebble, every production WAL). Block
// records are staged into wal.log immediately, but the fsync that
// acknowledges them covers a whole *commit window* — every record
// staged since the last fsync, whichever owner of the log staged it —
// so concurrent and batched writers share one disk flush instead of
// paying one each. The log belongs to the data dir, not to a device
// (see Log): the devices one process hosts write to one file, and a
// window is whatever all of them staged between two of its fsyncs.
//
// A driver that knows its batch forms the window itself, under any
// policy: StageBlock every block of a round, Commit once, then append
// the blocks to their stores (the LogBlock inside Store.Append finds
// the record staged and durable, and returns). That is one fsync per
// round however many devices sealed in it, no block visible before it
// is durable, and a window count that is a function of the batch and
// not of goroutine timing. For everyone else the window is closed by
// whichever of these the SyncPolicy selects:
//
//   - SyncAlways: a dedicated committer goroutine fsyncs on every
//     block record logged without staging; each LogBlock caller blocks
//     until the fsync covering its record returns. Callers that stage
//     while an fsync is in flight are absorbed into the next window,
//     so the per-block write-ahead contract is preserved exactly while
//     concurrent seal paths amortize the flush.
//   - SyncBatch: LogBlock stages and returns; Commit closes the
//     window explicitly. Drivers call it once per slot flush, before
//     any digest goes on the wire — write-ahead at window granularity
//     (a neighbor never learns of a block that could vanish).
//   - SyncInterval(d): the committer's ticker closes the window every
//     d — bounded staleness for deployments that can afford to lose
//     the last instants of sealed traffic.
//
// Crash safety of an open window: records staged but not yet fsynced
// were never acknowledged. The kernel may persist them out of order,
// but replay stops at the first incomplete or corrupt record, so any
// record the crash orphaned behind a hole is unreachable — recovery
// sees a clean prefix, every fsync-acknowledged record of which is
// intact (they all precede the window). Nothing is ever half-applied.

// syncMode enumerates the window-closing disciplines.
type syncMode uint8

const (
	syncModeAlways syncMode = iota
	syncModeBatch
	syncModeInterval
)

// SyncPolicy selects when WAL block records are fsynced — i.e. what
// closes a commit window. The zero value is SyncAlways, the
// default-compatible per-block discipline.
type SyncPolicy struct {
	mode  syncMode
	every time.Duration
}

// SyncAlways fsyncs every block record before the append is
// acknowledged (the default): nothing sealed is ever lost, and
// concurrent writers group-commit under one flush.
func SyncAlways() SyncPolicy { return SyncPolicy{} }

// SyncBatch stages block records without fsyncing; Commit closes the
// window. A crash inside an open window loses only records that were
// never acknowledged durable — the driver commits before announcing.
func SyncBatch() SyncPolicy { return SyncPolicy{mode: syncModeBatch} }

// SyncInterval fsyncs staged records at most every d — bounded
// staleness: a crash loses at most the last d of sealed traffic.
func SyncInterval(d time.Duration) SyncPolicy {
	return SyncPolicy{mode: syncModeInterval, every: d}
}

// PerBlock reports the SyncAlways discipline.
func (p SyncPolicy) PerBlock() bool { return p.mode == syncModeAlways }

// Batched reports the SyncBatch discipline — the one under which a
// driver must Commit at its flush boundary.
func (p SyncPolicy) Batched() bool { return p.mode == syncModeBatch }

// Every returns the interval of a SyncInterval policy, 0 otherwise.
func (p SyncPolicy) Every() time.Duration {
	if p.mode == syncModeInterval {
		return p.every
	}
	return 0
}

// Validate rejects malformed policies (a non-positive interval).
func (p SyncPolicy) Validate() error {
	if p.mode == syncModeInterval && p.every <= 0 {
		return fmt.Errorf("ledger: SyncInterval(%v): interval must be positive", p.every)
	}
	return nil
}

// String renders the policy in the form ParseSyncPolicy accepts.
func (p SyncPolicy) String() string {
	switch p.mode {
	case syncModeBatch:
		return "batch"
	case syncModeInterval:
		return "interval=" + p.every.String()
	default:
		return "always"
	}
}

// ParseSyncPolicy parses "always", "batch" or "interval=<duration>"
// (e.g. "interval=50ms") — the -sync flag syntax.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch {
	case s == "always" || s == "":
		return SyncAlways(), nil
	case s == "batch":
		return SyncBatch(), nil
	case strings.HasPrefix(s, "interval="):
		d, err := time.ParseDuration(strings.TrimPrefix(s, "interval="))
		if err != nil {
			return SyncPolicy{}, fmt.Errorf("ledger: sync policy %q: %w", s, err)
		}
		p := SyncInterval(d)
		if err := p.Validate(); err != nil {
			return SyncPolicy{}, err
		}
		return p, nil
	default:
		return SyncPolicy{}, fmt.Errorf("ledger: unknown sync policy %q (want always, batch, or interval=<duration>)", s)
	}
}

// CommitObserver receives one callback per WAL commit window, after
// its fsync returned: how many block records the window acknowledged
// and how many WAL bytes it made durable. Implementations must be
// cheap and safe for concurrent use (metrics.EventCounters is one).
type CommitObserver interface {
	OnWALCommit(blocks int, bytes int64)
}

// BackendOption configures OpenFileBackend and OpenLog.
type BackendOption func(*Log)

// WithSyncPolicy selects the log's commit-window discipline (default
// SyncAlways).
func WithSyncPolicy(p SyncPolicy) BackendOption {
	return func(l *Log) { l.policy = p }
}

// WithCommitObserver attaches a per-commit-window callback.
func WithCommitObserver(o CommitObserver) BackendOption {
	return func(l *Log) { l.obs = o }
}

// WALFile is what the log asks of the file it appends to. *os.File is
// the one production implementation; the interface is the seam under
// the log where a test fails or shortens a write and fails an fsync or
// a truncation.
type WALFile interface {
	io.WriteCloser
	Sync() error
	Truncate(size int64) error
}

// WithWALFile has the log write through wrap(f) for every generation f
// it opens. For fault-injection tests.
func WithWALFile(wrap func(WALFile) WALFile) BackendOption {
	return func(l *Log) { l.wrap = wrap }
}

// WALStats are the log's durability counters since open — how many
// fsyncs the commit windows cost and how many bytes they made
// durable. The ratio of blocks logged to Fsyncs is the amortization
// group commit bought.
type WALStats struct {
	Fsyncs         int64
	BytesCommitted int64
}

// Log is one data dir's write-ahead log: the wal.log/wal.old
// generations, the commit windows over them and the compaction that
// retires them. It serves the FileBackends opened on it — the one
// OpenFileBackend makes for a single-owner dir, or one per device of
// a process for a log opened with OpenLog — and each of those is a
// Journal for its own node's structures and keeps its own snapshot.
// Safe for concurrent use by all of them.
type Log struct {
	dir    string
	shared bool // OpenLog: several owners, every record names its own
	policy SyncPolicy
	obs    CommitObserver
	wrap   func(WALFile) WALFile               // nil outside tests
	rename func(oldpath, newpath string) error // os.Rename outside tests

	// compactMu is held for the length of a compaction, and by a backend
	// of a shared log while it recovers or closes: the set of backends a
	// compaction snapshots does not change under it, nor do the files a
	// recovery reads. Taken before mu.
	compactMu sync.Mutex

	mu       sync.Mutex
	f        WALFile        // wal.log, append-only
	scratch  []byte         // record frame scratch, reused under mu
	pscratch []byte         // payload scratch, reused under mu
	views    []*FileBackend // recovered and not yet closed
	closed   bool
	deferred error // sticky lazy-record or compaction error (see Sync)

	// hasOld says wal.old exists: a compaction rotated and has not yet
	// committed every snapshot that lets it go. Until one does, nothing
	// rotates again — the rename would replace the only copy of records
	// no snapshot holds.
	hasOld bool
	// uncovered owners have records in the generations that no snapshot
	// is known to hold and no open backend could gather — found in the
	// files as a shared log opened and not yet recovered, or closed with
	// records newer than their snapshot: while there is one, compaction
	// leaves the generations alone. covered owners closed with their
	// snapshot holding all they ever logged here: their next Recover
	// need not read the generations.
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

	// Commit-window state: syncedOff is the prefix the last successful
	// fsync acknowledged; (syncedOff, goodOff] is the open window, and
	// each view counts the block records it has in it. waiters are the
	// SyncAlways callers blocked on its fsync.
	syncedOff int64
	waiters   []chan error
	fsyncs    int64 // commit windows closed since open
	committed int64 // WAL bytes acknowledged durable since open

	kick chan struct{} // wakes the committer (capacity 1, coalescing)
	stop chan struct{} // closed by Close to retire the committer
	done chan struct{} // closed by the committer on exit
}

// OpenLog opens (creating if needed) dir's log for several owners:
// OpenBackend gives each its view. What a crash tore off the end of
// wal.log is cut away here, before anybody appends behind it, and every
// owner found in the generations counts as uncovered until its backend
// has recovered.
func OpenLog(dir string, opts ...BackendOption) (*Log, error) {
	return openLog(dir, true, opts)
}

func openLog(dir string, shared bool, opts []BackendOption) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ledger: creating data dir: %w", err)
	}
	l := &Log{
		dir: dir, shared: shared, rename: os.Rename,
		uncovered: make(map[identity.NodeID]struct{}),
		covered:   make(map[identity.NodeID]struct{}),
		kick:      make(chan struct{}, 1),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	for _, o := range opts {
		o(l)
	}
	if err := l.policy.Validate(); err != nil {
		return nil, err
	}
	var err error
	if l.f, err = l.openGeneration(0); err != nil {
		return nil, fmt.Errorf("ledger: opening WAL: %w", err)
	}
	info, err := os.Stat(filepath.Join(dir, walFileName))
	if err == nil {
		l.goodOff = info.Size()
		// Any doubt counts as a wal.old: the log then never rotates over it.
		_, oldErr := os.Stat(filepath.Join(dir, walOldFileName))
		l.hasOld = !errors.Is(oldErr, fs.ErrNotExist)
	}
	if err == nil && shared {
		err = l.scanOwners()
	}
	if err != nil {
		l.f.Close()
		return nil, fmt.Errorf("ledger: reading WAL: %w", err)
	}
	l.syncedOff = l.goodOff
	go l.committer()
	return l, nil
}

// openGeneration opens wal.log for appending behind the seam.
func (l *Log) openGeneration(flag int) (WALFile, error) {
	f, err := os.OpenFile(filepath.Join(l.dir, walFileName), os.O_CREATE|os.O_WRONLY|os.O_APPEND|flag, 0o644)
	if err != nil {
		return nil, err
	}
	if l.wrap != nil {
		return l.wrap(f), nil
	}
	return f, nil
}

// scanOwners reads both generations of a shared log as it opens: every
// owner with a record in them is uncovered until it recovers, and a
// torn tail of wal.log — unacknowledged by definition — is truncated
// before anything is appended behind it. Damage inside wal.old is left
// for Recover to refuse.
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
			if owner, ok := rec.owner(); ok {
				l.uncovered[owner] = struct{}{}
			}
			off += n
		}
		if name == walFileName && off < len(buf) {
			if err := l.f.Truncate(int64(off)); err != nil {
				return err
			}
			l.goodOff = int64(off)
		}
	}
	return nil
}

// WALStats returns the durability counters since open.
func (l *Log) WALStats() WALStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return WALStats{Fsyncs: l.fsyncs, BytesCommitted: l.committed}
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

// syncDir fsyncs a directory so renames and truncations in it are
// durable. Best-effort: some filesystems reject directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
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

// appendLocked frames and writes one record, repairing any poisoned
// tail first. Caller holds l.mu.
func (l *Log) appendLocked(kind byte, payload []byte) error {
	if l.closed {
		return ErrBackendClosed
	}
	if err := l.repairLocked(); err != nil {
		return err
	}
	l.scratch = appendWALRecord(l.scratch[:0], kind, payload)
	if n, err := l.f.Write(l.scratch); err != nil || n < len(l.scratch) {
		// A write can fail after writing some bytes (ENOSPC, I/O error):
		// everything past goodOff is garbage until repaired.
		l.dirty = true
		if err == nil {
			err = io.ErrShortWrite
		}
		return fmt.Errorf("ledger: writing WAL record: %w", err)
	}
	l.goodOff += int64(len(l.scratch))
	return nil
}

// waiterPool recycles the one-shot acknowledgement channels LogBlock
// blocks on under SyncAlways; each receives exactly one send before
// being returned, so a pooled channel is always empty.
var waiterPool = sync.Pool{New: func() any { return make(chan error, 1) }}

// kickCommitter wakes the committer goroutine without blocking; a
// pending token already covers every staged record.
func (l *Log) kickCommitter() {
	select {
	case l.kick <- struct{}{}:
	default:
	}
}

// committer is the dedicated commit goroutine: it closes commit
// windows on demand (SyncAlways kicks) or on a ticker (SyncInterval).
// The fsync runs under l.mu, which is what forms the window — every
// LogBlock that queued on the mutex while a flush was in flight stages
// into the next window and shares its fsync.
func (l *Log) committer() {
	defer close(l.done)
	var tick <-chan time.Time
	if d := l.policy.Every(); d > 0 {
		t := time.NewTicker(d)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-l.stop:
			return
		case <-l.kick:
		case <-tick:
		}
		l.mu.Lock()
		if !l.closed {
			err := l.commitLocked()
			// Interval windows have no waiter to hand the error to; keep
			// it sticky so Sync/Close surface it (SyncAlways errors reach
			// every blocked caller directly).
			if err != nil && l.policy.Every() > 0 && l.deferred == nil {
				l.deferred = err
			}
		}
		l.mu.Unlock()
	}
}

// commitLocked closes the current commit window: repair any poisoned
// tail, fsync everything staged past syncedOff, and release every
// blocked LogBlock caller. On fsync failure the durability of the
// whole unsynced region is unknown, so it is poisoned wholesale —
// goodOff retreats to the last acknowledged fsync and the next write
// truncates the region away; every waiter fails (their appends fail
// with them), and every owner's staged-but-unacknowledged block
// records leave its pending count and stop counting as staged, so
// nothing of the window is ever appended to a store. Caller holds l.mu.
func (l *Log) commitLocked() error {
	rerr := l.repairLocked()
	if l.goodOff == l.syncedOff && len(l.waiters) == 0 {
		return rerr // nothing staged since the last fsync
	}
	err := l.f.Sync()
	if err != nil {
		err = fmt.Errorf("ledger: syncing WAL: %w", err)
		l.goodOff = l.syncedOff
		l.dirty = true
	}
	blocks := 0
	for _, v := range l.views {
		if err != nil {
			v.pending -= v.windowBlocks
			v.staged = nil
		}
		blocks += v.windowBlocks
		v.windowBlocks = 0
	}
	for _, w := range l.waiters {
		w <- err
	}
	l.waiters = l.waiters[:0]
	if err != nil {
		return err
	}
	bytes := l.goodOff - l.syncedOff
	l.syncedOff = l.goodOff
	l.fsyncs++
	l.committed += bytes
	if l.obs != nil {
		l.obs.OnWALCommit(blocks, bytes)
	}
	return rerr
}

// Commit closes the current commit window, fsyncing every staged
// record: the acknowledgement point of a driver that staged a round of
// blocks, and under SyncBatch the one a driver invokes once per slot
// flush; a cheap no-op when nothing is staged. Unlike Sync it does not
// surface (or clear) sticky errors — it is a hot-path call.
func (l *Log) Commit() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrBackendClosed
	}
	return l.commitLocked()
}

// Sync closes the current commit window (fsyncing anything staged)
// and surfaces any sticky lazy-record or compaction error (clearing
// it).
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

// rotateLocked closes the current WAL generation as wal.old and opens
// a fresh wal.log. The generation is repaired before the rename, so
// wal.old never carries a partial frame — which is what entitles
// recovery to treat a torn wal.old as corruption rather than a crash
// artifact. A rename that fails changes nothing: the log keeps
// appending to the generation it has. Caller holds l.mu and has checked
// that no wal.old exists.
func (l *Log) rotateLocked() error {
	// Closing the commit window first acknowledges (or fails) every
	// staged record and blocked caller before the generation is sealed
	// as wal.old.
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
	l.hasOld = true
	l.goodOff, l.syncedOff, l.dirty = 0, 0, false
	for _, v := range l.views {
		v.pending = 0
	}
	syncDir(l.dir)
	return nil
}

// Compact folds the log into fresh snapshots of every open backend:
//
//  1. under mu: fsync wal.log, rename it to wal.old, start an empty
//     generation (every owner's pending = 0);
//  2. outside mu: gather each owner's current state and commit it as
//     that owner's new snapshot (tmp + rename), side by side;
//  3. delete wal.old.
//
// Logging continues into the new generation throughout. Records
// gathered into a snapshot AND logged to the new generation replay
// idempotently; a crash at any step recovers (wal.old replays between
// snapshot and wal.log; snapshot.tmp is discarded). When step 2 fails
// wal.old stays, and the next Compact retries the snapshots without
// rotating: a generation only goes once snapshots hold every record in
// it. A failure is returned and kept as the sticky error Sync and
// Close report. Compact returns nil without compacting, leaving it to
// the next trigger, when a compaction is in flight, no backend is open
// to gather from, a block is staged but not yet appended to its store
// (the snapshot would miss a record the rotation retires), or an owner
// is uncovered.
func (l *Log) Compact(gather func(owner identity.NodeID) (*NodeState, error)) error {
	return l.compact(nil, gather)
}

// compact is Compact, or with only set the snapshot half of it for that
// one view: its owner's state into its own snapshot, no generation
// touched — and that one waits its turn instead of leaving it to a next
// trigger, because the caller is about to close the view.
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
	if busy {
		l.mu.Unlock()
		return nil
	}
	views := []*FileBackend{only}
	if only == nil {
		views = append([]*FileBackend(nil), l.views...)
		if !l.hasOld {
			err = l.rotateLocked()
		}
	}
	errs := make([]error, len(views))
	if err == nil {
		for _, v := range views {
			v.logged = false // whatever it logs from here on is newer than the snapshot
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
	par.ForEach(len(views), 0, func(i int) {
		st, err := gather(views[i].owner)
		if err != nil {
			errs[i] = fmt.Errorf("ledger: gathering state for compaction: %w", err)
			return
		}
		errs[i] = views[i].writeSnapshotFile(st)
	})
	if err = errors.Join(errs...); err != nil || only != nil {
		return err
	}
	if err := os.Remove(filepath.Join(l.dir, walOldFileName)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("ledger: removing rotated WAL: %w", err)
	}
	syncDir(l.dir)
	l.mu.Lock()
	l.hasOld = false
	l.mu.Unlock()
	return nil
}

// Close commits any open window, closes the WAL, and retires the
// committer goroutine; every backend still open on the log is closed
// with it. Further calls return ErrBackendClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrBackendClosed
	}
	err := l.commitLocked()
	l.closed = true
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = l.deferred
	}
	l.deferred = nil
	l.mu.Unlock()
	// The committer may be blocked acquiring l.mu, so stop it only
	// after releasing; closed is set, so a late wakeup is a no-op.
	close(l.stop)
	<-l.done
	if err != nil {
		return fmt.Errorf("ledger: closing backend: %w", err)
	}
	return nil
}
