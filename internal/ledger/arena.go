package ledger

import (
	"sync"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/digest"
)

// arenaShardCount shards the arena's digest-keyed index so concurrent
// appenders (parallel slot generation) and readers (audit fan-out)
// spread across locks. Power of two; header digests are uniform
// hashes, so the first byte balances shards.
const arenaShardCount = 64

type arenaShard struct {
	mu     sync.RWMutex
	byHash map[digest.Digest]*block.Block
}

// Arena is a content-addressed block store shared by many ledgers: each
// sealed block is held exactly once, keyed by its header hash, in the
// spirit of fixed-path byte-tree storage where bodies are stored once
// and addressed by content. Per-node Stores built with NewStoreInArena
// are an ordered log of shared references (plus the responder index
// every store builds on demand) over the arena instead of carrying a
// private hash-keyed map each — the storage shape that lets the
// simulator hold 10k–100k node ledgers in one process.
//
// Blocks must be sealed before Put (their header hash is the arena
// key, so it must be frozen); the arena hands them back by shared
// reference and they must be treated as read-only, exactly like Store
// reads. Safe for concurrent use.
type Arena struct {
	shards [arenaShardCount]arenaShard
	n      int64
	nmu    sync.Mutex
}

// NewArena returns an empty arena.
func NewArena() *Arena {
	a := &Arena{}
	for i := range a.shards {
		a.shards[i].byHash = make(map[digest.Digest]*block.Block)
	}
	return a
}

func (a *Arena) shard(d digest.Digest) *arenaShard {
	return &a.shards[d[0]&(arenaShardCount-1)]
}

// Put registers a sealed block under its header hash and returns that
// hash. Content addressing makes Put idempotent: a block whose digest
// is already present is not stored again (the first copy wins, and
// equal digests imply equal content).
func (a *Arena) Put(b *block.Block) digest.Digest {
	d := b.Header.Hash()
	sh := a.shard(d)
	sh.mu.Lock()
	_, dup := sh.byHash[d]
	if !dup {
		sh.byHash[d] = b
	}
	sh.mu.Unlock()
	if !dup {
		a.nmu.Lock()
		a.n++
		a.nmu.Unlock()
	}
	return d
}

// Get returns the (sealed, read-only) block whose header hashes to d.
func (a *Arena) Get(d digest.Digest) (*block.Block, bool) {
	sh := a.shard(d)
	sh.mu.RLock()
	b, ok := sh.byHash[d]
	sh.mu.RUnlock()
	return b, ok
}

// Len returns the number of distinct blocks stored.
func (a *Arena) Len() int {
	a.nmu.Lock()
	defer a.nmu.Unlock()
	return int(a.n)
}
