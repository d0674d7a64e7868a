package faults

import (
	"sync"

	"github.com/twoldag/twoldag/internal/events"
	"github.com/twoldag/twoldag/internal/identity"
)

// DefaultSuspectThreshold is the consecutive-failure count that opens
// a peer's circuit. One failure is not enough: a single lost frame or
// late reply on a lossy radio link says little about the peer, while
// two in a row, with no success between, is worth routing around.
const DefaultSuspectThreshold = 2

// Health is one node's per-peer circuit breaker. Transport failures
// (send errors, PoP timeouts) count consecutively per peer; crossing
// the threshold marks the peer suspected, and audits route around
// suspected peers (core.ValidatorConfig.Avoid) while announcements
// keep flowing to them — broadcast digests are cheap, and each one
// doubles as a recovery probe. Any subsequent success (a send that
// goes through, a PoP reply) closes the circuit and re-admits the
// peer.
//
// Suspicion is local, advisory state: it never blocks inbound traffic,
// and resets on the first success, so a healthy network converges back
// to full routing with no operator action. It is the node's one record
// of a peer's standing: a live node bans no peer for how it answers
// audits, and that re-admission on the next answer stands in for the
// redemption of Sec. IV-D6.
type Health struct {
	node identity.NodeID
	obs  events.Observer

	mu       sync.Mutex
	failures map[identity.NodeID]int
	suspects map[identity.NodeID]struct{}
}

// NewHealth builds the tracker for node. obs, when non-nil, receives
// PeerSuspected and PeerRecovered transitions.
func NewHealth(node identity.NodeID, obs events.Observer) *Health {
	return &Health{
		node:     node,
		obs:      obs,
		failures: make(map[identity.NodeID]int),
		suspects: make(map[identity.NodeID]struct{}),
	}
}

// ReportFailure records one failed interaction with peer. Reaching
// DefaultSuspectThreshold consecutive failures opens the circuit
// (emitting PeerSuspected once per opening).
func (h *Health) ReportFailure(peer identity.NodeID) {
	if h == nil {
		return
	}
	h.mu.Lock()
	n := h.failures[peer] + 1
	h.failures[peer] = n
	opened := false
	if _, sus := h.suspects[peer]; !sus && n >= DefaultSuspectThreshold {
		h.suspects[peer] = struct{}{}
		opened = true
	}
	h.mu.Unlock()
	if opened && h.obs != nil {
		h.obs.OnPeerSuspected(events.PeerSuspected{Node: h.node, Peer: peer, Failures: n})
	}
}

// ReportSuccess records one successful interaction with peer, clearing
// its failure streak and closing its circuit (emitting PeerRecovered
// when it was open).
func (h *Health) ReportSuccess(peer identity.NodeID) {
	if h == nil {
		return
	}
	h.mu.Lock()
	recovered := false
	if _, sus := h.suspects[peer]; sus {
		delete(h.suspects, peer)
		recovered = true
	}
	if h.failures[peer] != 0 {
		delete(h.failures, peer)
	}
	h.mu.Unlock()
	if recovered && h.obs != nil {
		h.obs.OnPeerRecovered(events.PeerRecovered{Node: h.node, Peer: peer})
	}
}

// Suspect force-opens peer's circuit immediately, regardless of its
// failure streak — for out-of-band knowledge that the peer is gone (a
// Leave broadcast, an operator command). Emits PeerSuspected when the
// circuit was closed; a later success still re-admits the peer as
// usual.
func (h *Health) Suspect(peer identity.NodeID) {
	if h == nil {
		return
	}
	h.mu.Lock()
	_, already := h.suspects[peer]
	if !already {
		h.suspects[peer] = struct{}{}
	}
	n := h.failures[peer]
	h.mu.Unlock()
	if !already && h.obs != nil {
		h.obs.OnPeerSuspected(events.PeerSuspected{Node: h.node, Peer: peer, Failures: n})
	}
}

// Suspected reports whether peer's circuit is open. Safe to pass as
// core.ValidatorConfig.Avoid.
func (h *Health) Suspected(peer identity.NodeID) bool {
	if h == nil {
		return false
	}
	h.mu.Lock()
	_, sus := h.suspects[peer]
	h.mu.Unlock()
	return sus
}
