package ledger

import (
	"encoding/binary"
	"sort"
	"sync"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/identity"
)

// DigestCache is A_i: the latest block-header digest received from each
// neighbor (paper Sec. III-D). When neighbor j announces a new digest,
// it replaces j's previous entry.
//
// The representation is a pair of parallel slices sorted by node ID
// rather than a map: a cache entry costs 4+32 bytes plus slice
// bookkeeping instead of ~100+ bytes of map machinery, which is what
// lets a 10k–100k-node simulation keep one cache per node. The neighbor
// set is effectively fixed after the first slot (inserts are rare;
// steady-state updates are in-place by binary search), so the sorted
// representation is also no slower on the announcement hot path.
type DigestCache struct {
	mu      sync.RWMutex
	nodes   []identity.NodeID // sorted ascending
	digests []digest.Digest   // digests[i] belongs to nodes[i]

	// journal, when set, durably records every upsert. nil =
	// in-memory only.
	journal Journal
}

// NewDigestCache returns an empty cache.
func NewDigestCache() *DigestCache {
	return &DigestCache{}
}

// find returns the index of j in c.nodes and whether it is present;
// when absent, the index is where j would be inserted. Caller holds
// c.mu (either mode).
func (c *DigestCache) find(j identity.NodeID) (int, bool) {
	i := sort.Search(len(c.nodes), func(k int) bool { return c.nodes[k] >= j })
	return i, i < len(c.nodes) && c.nodes[i] == j
}

// SetJournal installs a durability journal: every subsequent upsert is
// logged (buffered; see FileBackend's fsync discipline) in apply
// order. Install before the cache sees traffic.
func (c *DigestCache) SetJournal(j Journal) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.journal = j
}

// set is the single-entry upsert. Caller holds c.mu for writing.
func (c *DigestCache) set(j identity.NodeID, d digest.Digest) {
	// Journal inside the lock so logged order is apply order; replay
	// is latest-wins, so reproducing the order reproduces the cache.
	// Errors degrade durability only (sticky in the backend).
	if c.journal != nil {
		_ = c.journal.LogDigest(j, d)
	}
	i, ok := c.find(j)
	if ok {
		c.digests[i] = d
		return
	}
	c.nodes = append(c.nodes, 0)
	copy(c.nodes[i+1:], c.nodes[i:])
	c.nodes[i] = j
	c.digests = append(c.digests, digest.Digest{})
	copy(c.digests[i+1:], c.digests[i:])
	c.digests[i] = d
}

// Update records the newest digest announced by node j.
func (c *DigestCache) Update(j identity.NodeID, d digest.Digest) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.set(j, d)
}

// UpdateBatch records from[i]'s announcement of ds[i] for every i, in
// order, under a single lock acquisition — the receiver-side batch
// ingest of a whole slot's announcements. Later entries from the same
// sender win, matching a sequence of Update calls. The slices must be
// the same length; UpdateBatch never retains them.
func (c *DigestCache) UpdateBatch(from []identity.NodeID, ds []digest.Digest) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, j := range from {
		c.set(j, ds[i])
	}
}

// Get returns the cached digest for node j.
func (c *DigestCache) Get(j identity.NodeID) (digest.Digest, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	i, ok := c.find(j)
	if !ok {
		return digest.Digest{}, false
	}
	return c.digests[i], true
}

// Forget drops a neighbor's entry (dynamic leave).
func (c *DigestCache) Forget(j identity.NodeID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.find(j)
	if !ok {
		return
	}
	if c.journal != nil {
		_ = c.journal.LogForget(j)
	}
	c.nodes = append(c.nodes[:i], c.nodes[i+1:]...)
	c.digests = append(c.digests[:i], c.digests[i+1:]...)
}

// Len returns |A_i|.
func (c *DigestCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.nodes)
}

// appendEntries appends A_i's checkpoint branch — which is also its
// state-digest branch — under the read lock: the entry count, then
// each entry's node and digest, in node order.
func (c *DigestCache) appendEntries(dst []byte) []byte {
	c.mu.RLock()
	defer c.mu.RUnlock()
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(c.nodes)))
	for i, j := range c.nodes {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(j))
		dst = append(dst, c.digests[i][:]...)
	}
	return dst
}

// AppendSnapshot appends the Δ field for a new block (Sec. III-D) to
// dst: the owner's previous-header digest first (zero for genesis),
// then the cached digest for each listed neighbor, in the given order.
// Neighbors with no cached digest yet are included with the zero digest
// so the field layout is stable; zero entries never match Contains.
// Generation hot loops keep per-worker scratch as dst instead of
// allocating a Δ slice per block. The appended region is copied out by
// block.Params.Build, so dst may be reused immediately after the block
// is built.
func (c *DigestCache) AppendSnapshot(dst []block.DigestRef, owner identity.NodeID, prev digest.Digest, neighbors []identity.NodeID) []block.DigestRef {
	c.mu.RLock()
	defer c.mu.RUnlock()
	dst = append(dst, block.DigestRef{Node: owner, Digest: prev})
	for _, j := range neighbors {
		var d digest.Digest
		if i, ok := c.find(j); ok {
			d = c.digests[i]
		}
		dst = append(dst, block.DigestRef{Node: j, Digest: d})
	}
	return dst
}
