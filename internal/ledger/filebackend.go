package ledger

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"time"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/identity"
	"github.com/twoldag/twoldag/internal/par"
)

// Data-dir layout. The write-ahead log belongs to the data dir (Log);
// a FileBackend is one owner's view of it and keeps that owner's
// snapshot:
//
//	wal.log       — current WAL generation: every mutation since the
//	                snapshots, one CRC-framed record each (see wal.go).
//	wal.old       — previous generation, present only inside a
//	                compaction window (rotation committed, not every
//	                snapshot yet); replayed between snapshot and
//	                wal.log, and never replaced while it exists.
//	snapshot.2ldg — an owner's last compacted snapshot (snapshot v2:
//	                S_i blocks, H_i headers, A_i entries, trust cap,
//	                CRC-sealed). Always committed by atomic rename;
//	                never partial.
//	snapshot.tmp  — snapshot being written; garbage after a crash,
//	                deleted on recovery.
//
// OpenFileBackend(dir) is the self-contained single-owner case (one
// process per device, `serve`): all four files in dir, records as they
// have always been written, and Recover rewrites the dir to snapshot +
// empty wal.log. A process hosting several devices opens the log once,
// OpenLog(dir), and a backend per device, Log.OpenBackend: dir/wal.log
// and dir/wal.old for all of them, every record naming its owner, and
// dir/node-<id>/snapshot.2ldg (and .tmp) per device. A device then
// recovers as its own snapshot plus the shared generations filtered to
// its records, through the same idempotent replay rules — its snapshot
// may well be newer than records of its still in the log. (A node-<id>
// dir holding a wal.log or wal.old of its own was written before the
// log was shared: those replay first, then go.)
//
// Fsync discipline: block records are acknowledged by the fsync of
// the commit window they were staged into (see walwriter.go), shared
// by every owner that staged into it — under the default SyncAlways
// policy that fsync happens before Store.Append publishes the block
// (write-ahead — an accepted block survives a crash); trust and digest
// records are written immediately but fsynced lazily, piggybacking on
// the next commit window, Sync, or Close. Losing the tail of
// trust/digest records in a crash costs re-auditing, never data.
//
// Compaction is the log's (Log.Compact): rotate once, snapshot every
// open backend, drop wal.old. It has no state to gather for a backend
// that is closed, and drops the generations that held its records: so
// whoever closes a backend of a shared log while the others run on
// first leaves that owner's whole state in its snapshot (Compact on
// the backend does just that). An owner closed without — or found in
// the files and never recovered — is uncovered, and holds every
// compaction off until it is recovered again.
//
// Torn writes: a crash mid-record leaves wal.log with an incomplete or
// CRC-failing tail. Recovery replays the intact prefix and discards the
// tail (a shared log cuts it off as it opens), so the node restarts
// exactly at the last durable record. Only wal.log may end torn: a
// failed write poisons the generation and the partial frame is
// truncated away before any further record (or the rotation rename) —
// so replay never has to skip mid-file garbage, and a torn wal.old is
// treated as corruption, not tolerated.
const (
	snapshotFileName = "snapshot.2ldg"
	walFileName      = "wal.log"
	walOldFileName   = "wal.old"
	snapshotTmpName  = "snapshot.tmp"
)

// FileBackend is the file-backed ledger Backend of one owner: its
// records in the data dir's Log plus its own snapshot-v2 file. Safe
// for concurrent journal use; Compact may run concurrently with
// logging.
type FileBackend struct {
	log *Log
	dir string // keeps the snapshot; the log's own dir for a single owner

	// Guarded by log.mu.
	owner        identity.NodeID // from Recover
	recovered    bool
	closed       bool
	report       RecoveryReport
	pending      int          // own block records in the current WAL generation
	windowBlocks int          // those of them in the open commit window
	staged       *block.Block // written by StageBlock, not yet acknowledged by LogBlock
	stagedAt     int64        // log.fsyncs at that write: durable once it has moved on
	logged       bool         // has records no snapshot of its own covers
}

// RecoveryReport summarizes what the last Recover read from disk, so
// callers can surface how much state replayed and whether a torn WAL
// tail — bytes written but never fsync-acknowledged — was discarded.
type RecoveryReport struct {
	// SnapshotBlocks counts blocks restored from the snapshot.
	SnapshotBlocks int
	// WALBlocks counts block records applied during WAL replay (both
	// generations, duplicates of the snapshot excluded).
	WALBlocks int
	// WALBytes is the intact record prefix replayed across both WAL
	// generations (of a shared log: every owner's records in it).
	WALBytes int
	// TornTail reports that wal.log ended in an incomplete or corrupt
	// record; TornBytes is the discarded suffix length. Torn tails only
	// ever hold unacknowledged data.
	TornTail  bool
	TornBytes int
	// Duration is the wall time spent reading the snapshot and
	// replaying both WAL generations (normalization excluded).
	Duration time.Duration
}

// OpenFileBackend opens (creating if needed) a single-owner data dir:
// its log and the one backend on it, which closes the log with itself.
// Call Recover next.
func OpenFileBackend(dir string, opts ...BackendOption) (*FileBackend, error) {
	l, err := openLog(dir, false, opts)
	if err != nil {
		return nil, err
	}
	return &FileBackend{log: l, dir: dir}, nil
}

// OpenBackend opens one owner's backend on a shared log; dir (created
// if needed) keeps that owner's snapshot. Call Recover next. Closing
// the backend leaves the log open.
func (l *Log) OpenBackend(dir string) (*FileBackend, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ledger: creating data dir: %w", err)
	}
	return &FileBackend{log: l, dir: dir}, nil
}

// Recover rebuilds the node state from snapshot + WAL (see Backend).
// A single-owner backend then compacts immediately: the recovered
// state becomes a fresh snapshot and the WAL restarts empty, so a
// crash loop cannot grow an unbounded replay tail. On a shared log
// that is the opener's to do, with Log.Compact, once every owner has
// recovered.
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
	// An interrupted compaction never committed its snapshot.
	_ = os.Remove(filepath.Join(fb.dir, snapshotTmpName))

	// One verification pool serves the snapshot and both WAL
	// generations; decode and structural checks stay sequential, only
	// the per-block re-seal + signature verification fans out (see
	// recoverVerifier), so reports and errors match the serial path
	// byte for byte.
	start := time.Now()
	pool := par.NewPool(opts.Workers)
	defer pool.Close()

	st := NewNodeState(opts.Owner, opts.TrustCap)
	sf, err := os.Open(filepath.Join(fb.dir, snapshotFileName))
	switch {
	case errors.Is(err, fs.ErrNotExist):
		// Fresh data dir.
	case err != nil:
		return nil, fmt.Errorf("ledger: reading snapshot: %w", err)
	default:
		st, err = readSnapshotStream(sf, opts, pool)
		sf.Close()
		if err != nil {
			return nil, err
		}
	}
	report := RecoveryReport{SnapshotBlocks: st.Store.Len()}
	// The trust cap must be in force before replay so FIFO evictions
	// replay exactly as they happened live. A torn tail is tolerated
	// only in wal.log — the generation a crash can tear mid-write;
	// wal.old was synced and repaired before its rotation rename, so a
	// torn record there is corruption that would silently drop every
	// acknowledged record after it. A view of a shared log reads what
	// its own dir holds from before the log was shared, then the shared
	// generations.
	type generation struct {
		dir, name string
		shared    bool
	}
	gens := []generation{{fb.dir, walOldFileName, false}, {fb.dir, walFileName, false}}
	if _, covered := l.covered[opts.Owner]; l.shared && !covered {
		gens = append(gens, generation{l.dir, walOldFileName, true}, generation{l.dir, walFileName, true})
	}
	legacy := false
	for _, gen := range gens {
		buf, err := os.ReadFile(filepath.Join(gen.dir, gen.name))
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("ledger: reading %s: %w", gen.name, err)
		}
		if gen.dir == l.dir && gen.name == walFileName {
			// Others may be appending: past goodOff is at most a partial
			// frame awaiting repair.
			buf = buf[:min(int64(len(buf)), l.goodOff)]
		}
		legacy = legacy || gen.shared != l.shared
		opts.shared = gen.shared
		stats, err := replayWAL(st, buf, opts, gen.name == walFileName, pool)
		if err != nil {
			return nil, fmt.Errorf("ledger: replaying %s: %w", gen.name, err)
		}
		report.WALBlocks += stats.blocks
		report.WALBytes += stats.valid
		if stats.torn {
			report.TornTail = true
			report.TornBytes = len(buf) - stats.valid
		}
	}
	report.Duration = time.Since(start)
	// Normalize on disk: recovered state → fresh snapshot, and what it
	// makes redundant of this owner's alone → gone. Done under mu —
	// nothing else can log or compact meanwhile.
	if !l.shared || legacy {
		if err := fb.writeSnapshotFile(st); err != nil {
			return nil, err
		}
		_ = os.Remove(filepath.Join(fb.dir, walOldFileName))
	}
	if !l.shared {
		if err := l.f.Truncate(0); err != nil {
			return nil, fmt.Errorf("ledger: truncating WAL: %w", err)
		}
		l.goodOff, l.syncedOff, l.dirty, l.hasOld = 0, 0, false, false
	} else if legacy {
		_ = os.Remove(filepath.Join(fb.dir, walFileName))
		syncDir(fb.dir)
	}
	fb.owner, fb.report, fb.recovered = opts.Owner, report, true
	delete(l.uncovered, opts.Owner)
	delete(l.covered, opts.Owner)
	l.views = append(l.views, fb)
	return st, nil
}

// writeSnapshotFile writes st to snapshot.tmp, fsyncs, and commits it
// by rename. The caller must exclude concurrent snapshot writers —
// by holding the log's compactMu, as Recover and Compact do; the write
// itself never touches the live WAL handle.
func (fb *FileBackend) writeSnapshotFile(st *NodeState) error {
	tmp := filepath.Join(fb.dir, snapshotTmpName)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("ledger: creating snapshot: %w", err)
	}
	if err := st.WriteSnapshot(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("ledger: syncing snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("ledger: closing snapshot: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(fb.dir, snapshotFileName)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("ledger: committing snapshot: %w", err)
	}
	syncDir(fb.dir)
	return nil
}

// logLocked writes one record of this owner's — named as its own when
// the log is shared — into the open commit window. Caller holds log.mu.
func (fb *FileBackend) logLocked(kind byte, payload []byte) error {
	if fb.closed {
		return ErrBackendClosed
	}
	if !fb.recovered {
		return errors.New("ledger: journal call before Recover")
	}
	if fb.log.shared && kind != walKindBlock {
		kind |= walOwnerTag
	}
	if err := fb.log.appendLocked(kind, payload); err != nil {
		return err
	}
	fb.logged = true
	return nil
}

// stageLocked writes b's record and counts it into the open window.
func (fb *FileBackend) stageLocked(b *block.Block) error {
	l := fb.log
	l.pscratch = block.AppendEncode(l.pscratch[:0], b)
	if err := fb.logLocked(walKindBlock, l.pscratch); err != nil {
		return err
	}
	fb.pending++
	fb.windowBlocks++
	return nil
}

// StageBlock writes b's record into the open commit window and returns
// (see Backend): the LogBlock that follows the window's Commit finds it
// there.
func (fb *FileBackend) StageBlock(b *block.Block) error {
	l := fb.log
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := fb.stageLocked(b); err != nil {
		return err
	}
	fb.staged, fb.stagedAt = b, l.fsyncs
	return nil
}

// LogBlock stages a block record into the current commit window —
// unless StageBlock already has, in a window that did not fail. Under
// SyncAlways (the default) it then blocks until the fsync covering the
// record has returned — write-ahead, the block is durable before
// Store.Append publishes it — while concurrent callers share that
// fsync; a staged record whose window was committed since returns at
// once. Under SyncBatch/SyncInterval it returns once staged; Commit or
// the committer's ticker acknowledges the window later. An error here
// fails the append.
func (fb *FileBackend) LogBlock(b *block.Block) error {
	l := fb.log
	l.mu.Lock()
	durable := fb.staged == b && l.fsyncs > fb.stagedAt
	if fb.staged != b {
		if err := fb.stageLocked(b); err != nil {
			l.mu.Unlock()
			return err
		}
	}
	fb.staged = nil
	if durable || !l.policy.PerBlock() {
		l.mu.Unlock()
		return nil
	}
	// The committer fsyncs under l.mu, so callers that stage while a
	// flush is in flight join the next window — group commit without
	// ever acknowledging before durability.
	w := waiterPool.Get().(chan error)
	l.waiters = append(l.waiters, w)
	l.mu.Unlock()
	l.kickCommitter()
	err := <-w
	waiterPool.Put(w)
	return err
}

// payloadLocked starts a lazy record's payload in the log's scratch:
// empty, or on a shared log the owner tag.
func (fb *FileBackend) payloadLocked() []byte {
	if !fb.log.shared {
		return fb.log.pscratch[:0]
	}
	return binary.LittleEndian.AppendUint32(fb.log.pscratch[:0], uint32(fb.owner))
}

// logLazy writes a trust or digest record whose payload build appends
// (no fsync; see the discipline above). Errors are additionally kept
// sticky for Sync.
func (fb *FileBackend) logLazy(kind byte, build func(dst []byte) []byte) error {
	l := fb.log
	l.mu.Lock()
	defer l.mu.Unlock()
	l.pscratch = build(fb.payloadLocked())
	err := fb.logLocked(kind, l.pscratch)
	if err != nil && l.deferred == nil && !errors.Is(err, ErrBackendClosed) {
		l.deferred = err
	}
	return err
}

// LogTrust writes a trust-store record.
func (fb *FileBackend) LogTrust(h *block.Header, inserted int64) error {
	return fb.logLazy(walKindTrust, func(dst []byte) []byte { return appendWALTrust(dst, inserted, h) })
}

// LogDigest writes a digest-cache record.
func (fb *FileBackend) LogDigest(from identity.NodeID, d digest.Digest) error {
	return fb.logLazy(walKindDigest, func(dst []byte) []byte { return appendWALDigest(dst, from, d) })
}

// LogForget writes a digest-cache removal record.
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

// WALStats returns the log's durability counters since open.
func (fb *FileBackend) WALStats() WALStats { return fb.log.WALStats() }

// Compact folds the journal into a fresh snapshot of this owner's
// state. On a single-owner backend that is the whole of Log.Compact:
// the log rotates and wal.old goes once the snapshot is committed. On
// a shared log a backend cannot retire generations that hold other
// owners' records, so only its own snapshot is written, from gather —
// which is what has to happen before it is closed for good.
func (fb *FileBackend) Compact(gather func() (*NodeState, error)) error {
	only := fb
	if !fb.log.shared {
		only = nil
	}
	return fb.log.compact(only, func(identity.NodeID) (*NodeState, error) { return gather() })
}

// Commit closes the log's current commit window (see Log.Commit).
func (fb *FileBackend) Commit() error { return fb.log.Commit() }

// Sync closes the log's current commit window and surfaces its sticky
// error (see Log.Sync).
func (fb *FileBackend) Sync() error { return fb.log.Sync() }

// Close commits any open window and closes the backend; a single-owner
// backend closes its log with it. Closing a backend of a shared log
// that has logged since its last snapshot leaves its owner uncovered.
// Further calls return ErrBackendClosed.
func (fb *FileBackend) Close() error {
	l := fb.log
	if !l.shared {
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
