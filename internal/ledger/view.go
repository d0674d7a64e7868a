package ledger

import (
	"fmt"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/identity"
)

// View is an immutable-prefix read view of a Store: it exposes only
// the blocks with Seq < Len(), the store's length at the moment the
// view was captured. Because a Store is append-only and its blocks are
// sealed, everything inside the prefix is frozen — a reader holding a
// View observes exactly the store state of the capture point no matter
// how many blocks the owner appends concurrently.
//
// This is the slot-fenced accessor behind the simulator's pipelined
// audits: a view captured at the end of slot t answers responder
// queries (Get, OldestContaining) as if no slot-(t+1) generation had
// happened yet, so audits of slot t stay byte-identical to a fully
// barriered schedule even while the next slot's blocks are being
// appended. Views are small values; copy them freely.
type View struct {
	store *Store
	limit uint32
}

// ViewAt captures an immutable-prefix view of the store's first n
// blocks. n beyond the current length is allowed (the view simply ends
// at whatever the fence says exists); negative n yields an empty view.
func (s *Store) ViewAt(n int) View {
	if n < 0 {
		n = 0
	}
	return View{store: s, limit: uint32(n)}
}

// View captures an immutable-prefix view of the store's current
// contents.
func (s *Store) View() View {
	return s.ViewAt(s.Len())
}

// Owner returns the owning node's ID.
func (v View) Owner() identity.NodeID { return v.store.owner }

// Len returns the number of blocks inside the prefix fence.
func (v View) Len() int { return int(v.limit) }

// Get returns the (sealed, read-only) block with the given sequence
// number, or ErrNotFound when it sits beyond the fence.
func (v View) Get(seq uint32) (*block.Block, error) {
	if seq >= v.limit {
		return nil, fmt.Errorf("%w: %v#%d", ErrNotFound, v.store.owner, seq)
	}
	return v.store.Get(seq)
}

// OldestContaining answers the responder's selection rule (Alg. 4,
// Eq. 10–11) restricted to the prefix: among the owner's first Len()
// blocks whose Δ contains d, return the oldest. Blocks are indexed in
// ascending sequence order and an index record, once written, never
// changes, so the oldest in-fence match is d's record whenever that
// predates the fence — the fence check alone keeps views exact.
func (v View) OldestContaining(d digest.Digest) (*block.Block, bool) {
	return v.store.oldestContainingAt(d, v.limit)
}
