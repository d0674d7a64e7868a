package cluster

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/events"
	"github.com/twoldag/twoldag/internal/identity"
	"github.com/twoldag/twoldag/internal/ledger"
	"github.com/twoldag/twoldag/internal/node"
	"github.com/twoldag/twoldag/internal/par"
)

// DefaultCompactEvery is the WAL compaction threshold of both live
// drivers, in block records of one owner in the log's current
// generation: it bounds wal.log's growth (devices x threshold blocks)
// and the recovery replay tail.
const DefaultCompactEvery = 256

// Submission is one block to seal: Data for device Node's next block.
type Submission struct {
	Node identity.NodeID
	Data []byte
}

// Sealer is the seal stage of both live drivers, run before anything
// of a batch is on the wire: a Cluster seals a slot of its devices
// with it, a Host each block of its one device as a round of one. It
// is also their durable lifecycle: Open, NewDevice, Compact, Close.
type Sealer struct {
	// Log is the devices' write-ahead log, the one Open opened in the
	// data dir. Nil when their ledgers live in memory.
	Log *ledger.Log
	// CompactEvery overrides DefaultCompactEvery when positive. Tests
	// set it to compact at small block counts; the drivers leave it 0.
	CompactEvery int
	// Device resolves a running device: a submission's owner, or a log
	// owner whose state a compaction gathers.
	Device func(identity.NodeID) (*Device, error)

	dir string // the data dir Open opened Log in
}

// Open opens the log of data dir dir as s.Log for a start that runs
// the devices ids, with obs as its commit observer when obs takes WAL
// commit windows (ledger.CommitObserver, alone or behind events.Multi);
// an empty dir keeps the ledgers in memory. Two dirs are refused
// before any device dir is made in them, and leave nothing open:
//   - one that keeps a device's checkpoint, segment or snapshot flat
//     beside its log, as earlier builds of `serve` did: that device
//     would recover empty from dir/node-<id> and seal from seq 0 again;
//   - one whose log holds records of a device outside ids, with
//     ledger.ErrWrongOwner: no compaction could retire the generations
//     while that device does not run.
//
// Once every device has started on the log (NewDevice), the driver
// compacts it (Compact), so a crash loop cannot grow an unbounded
// replay tail.
func (s *Sealer) Open(dir string, ids []identity.NodeID, obs events.Observer, opts []ledger.BackendOption) error {
	if dir == "" {
		return nil
	}
	if name := ledger.FlatDeviceFile(dir); name != "" {
		return fmt.Errorf("cluster: %s holds a %s beside its log, the layout of an earlier build, which this one does not read",
			dir, name)
	}
	if co, ok := obs.(ledger.CommitObserver); ok {
		opts = append(slices.Clip(opts), ledger.WithCommitObserver(co))
	}
	log, err := ledger.OpenLog(dir, opts...)
	if err != nil {
		return err
	}
	var strangers []identity.NodeID
	for _, owner := range log.Uncovered() {
		if !slices.Contains(ids, owner) {
			strangers = append(strangers, owner)
		}
	}
	if len(strangers) > 0 {
		_ = log.Close()
		return fmt.Errorf("%w: the log holds records of %v, which this start does not run", ledger.ErrWrongOwner, strangers)
	}
	s.Log, s.dir = log, dir
	return nil
}

// Close closes the log, after every device on it has closed; nil in
// memory and once closed.
func (s *Sealer) Close() error {
	if s.Log == nil {
		return nil
	}
	err := s.Log.Close()
	s.Log = nil
	return err
}

// Seal seals one block per submission, in rounds: round r is the r-th
// block of every owner in the batch, so a slot of one block per device
// is one round. Every owner resolves before anything is sealed. A
// round's blocks are mined and signed side by side, each staging its
// record in the log; then the round's one commit window closes — one
// fsync whatever the device count — and only then are the blocks
// appended to their S_i and BlockSealed fired, on the caller, in owner
// order. A window that does not close fails every block in it, and the
// next batch seals their sequence numbers again. The log compacts,
// when due, between rounds, so no block is staged but unpublished
// while it rotates. On failure the error is that of the lowest-index
// failing submission, and the refs and digests returned exactly those
// of the submissions before it; the digests are for
// AckTracker.Announce.
func (s *Sealer) Seal(batch []Submission) ([]block.Ref, []Sealed, error) {
	type owner struct {
		n    *node.Node
		subs []int // indexes into batch, ascending
	}
	var owners []owner
	ownerOf := make(map[identity.NodeID]int, len(batch))
	for i, sub := range batch {
		o, seen := ownerOf[sub.Node]
		if !seen {
			d, err := s.Device(sub.Node)
			if err != nil {
				return nil, nil, err
			}
			o = len(owners)
			ownerOf[sub.Node] = o
			owners = append(owners, owner{n: d.node})
		}
		owners[o].subs = append(owners[o].subs, i)
	}

	refs := make([]block.Ref, len(batch))
	flush := make([]Sealed, len(batch))
	// failed is the lowest batch index whose seal failed and sealErr its
	// error. No worker starts a block beyond failed; blocks before it
	// are still sealed, in later rounds too.
	var (
		failed  atomic.Int64
		mu      sync.Mutex // orders the writers of failed and sealErr
		sealErr error
	)
	failed.Store(int64(len(batch)))
	fail := func(i int, err error) {
		mu.Lock()
		if int64(i) < failed.Load() {
			failed.Store(int64(i))
			sealErr = err
		}
		mu.Unlock()
	}
	type sealing struct {
		n *node.Node
		i int // index into batch
		b *block.Block
	}
	var round []sealing
	for r := 0; ; r++ {
		round = round[:0]
		for _, o := range owners {
			if r < len(o.subs) && int64(o.subs[r]) < failed.Load() {
				round = append(round, sealing{n: o.n, i: o.subs[r]})
			}
		}
		if len(round) == 0 {
			break
		}
		par.ForEach(len(round), func(k int) {
			sl := &round[k]
			if int64(sl.i) > failed.Load() {
				return
			}
			b, err := sl.n.SealLocal(batch[sl.i].Data)
			if err != nil {
				fail(sl.i, err)
				return
			}
			sl.b = b
		})
		var werr error
		if s.Log != nil {
			werr = s.Log.Commit()
		}
		for _, sl := range round {
			if sl.b == nil {
				continue
			}
			if werr != nil {
				fail(sl.i, werr)
				continue
			}
			d, err := sl.n.PublishLocal(sl.b)
			if err != nil {
				fail(sl.i, err)
				continue
			}
			refs[sl.i] = sl.b.Header.Ref()
			flush[sl.i] = Sealed{Node: sl.n, Digest: d}
		}
		s.maybeCompact()
	}
	if f := failed.Load(); f < int64(len(batch)) {
		return refs[:f], flush[:f], sealErr
	}
	return refs, flush, nil
}

// maybeCompact compacts the log once one owner has the threshold of
// block records in its current generation, so a long-lived run bounds
// the log's growth and the recovery replay tail. Not lost on failure:
// the log keeps the error as its sticky one, which Sync and Close
// report, and the next trigger retries.
func (s *Sealer) maybeCompact() {
	every := s.CompactEvery
	if every <= 0 {
		every = DefaultCompactEvery
	}
	if s.Log != nil && s.Log.PendingBlocks() >= every {
		_ = s.Compact()
	}
}

// Compact rotates the log once, commits every running device's segment
// and checkpoint and drops the rotated generation (ledger.Log.Compact);
// a no-op in memory.
func (s *Sealer) Compact() error {
	if s.Log == nil {
		return nil
	}
	return s.Log.Compact(func(id identity.NodeID) (*ledger.NodeState, error) {
		d, err := s.Device(id)
		if err != nil {
			return nil, err
		}
		return d.node.Engine().State(), nil
	})
}
