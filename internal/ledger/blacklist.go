package ledger

import (
	"sync"

	"github.com/twoldag/twoldag/internal/identity"
)

// Blacklist implements the selfish-attack penalty of Sec. IV-D6: nodes
// that repeatedly fail to answer REQ_CHILD messages are banned; banned
// nodes earn their way back by helping transmit blocks (redemption
// credits), which incentivizes re-connected nodes to participate.
type Blacklist struct {
	mu         sync.Mutex
	strikes    map[identity.NodeID]int
	redemption map[identity.NodeID]int // remaining credits before unban

	banThreshold    int
	redemptionQuota int
}

// DefaultBanThreshold is how many unanswered requests ban a peer.
const DefaultBanThreshold = 3

// DefaultRedemptionQuota is how many helpful transmissions lift a ban.
const DefaultRedemptionQuota = 5

// NewBlacklist creates a blacklist; non-positive arguments take the
// defaults.
func NewBlacklist(banThreshold, redemptionQuota int) *Blacklist {
	if banThreshold <= 0 {
		banThreshold = DefaultBanThreshold
	}
	if redemptionQuota <= 0 {
		redemptionQuota = DefaultRedemptionQuota
	}
	return &Blacklist{
		strikes:         make(map[identity.NodeID]int),
		redemption:      make(map[identity.NodeID]int),
		banThreshold:    banThreshold,
		redemptionQuota: redemptionQuota,
	}
}

// ReportFailure records an unanswered or invalid reply from id and
// returns true if the node is now banned.
func (b *Blacklist) ReportFailure(id identity.NodeID) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, banned := b.redemption[id]; banned {
		return true
	}
	b.strikes[id]++
	if b.strikes[id] >= b.banThreshold {
		b.redemption[id] = b.redemptionQuota
		delete(b.strikes, id)
		return true
	}
	return false
}

// ReportSuccess clears accumulated strikes after a valid reply.
func (b *Blacklist) ReportSuccess(id identity.NodeID) {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.strikes, id)
}

// Credit records that a banned node helped transmit a block; after
// enough credits the ban lifts. Credits for non-banned nodes are no-ops.
func (b *Blacklist) Credit(id identity.NodeID) {
	b.mu.Lock()
	defer b.mu.Unlock()
	left, banned := b.redemption[id]
	if !banned {
		return
	}
	left--
	if left <= 0 {
		delete(b.redemption, id)
		return
	}
	b.redemption[id] = left
}

// Banned reports whether id is currently blacklisted.
func (b *Blacklist) Banned(id identity.NodeID) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	_, banned := b.redemption[id]
	return banned
}
