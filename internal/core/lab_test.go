package core

import (
	"fmt"
	"testing"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/identity"
	"github.com/twoldag/twoldag/internal/ledger"
	"github.com/twoldag/twoldag/internal/topology"
)

// lab is an in-process 2LDAG network used throughout the core tests:
// one Engine per topology node, a shared key ring and a StoreFetcher
// over the stores the lab lists as reachable.
type lab struct {
	t       *testing.T
	topo    *topology.Graph
	params  block.Params
	ring    *identity.Ring
	engines map[identity.NodeID]*Engine
	// stores are the responders the fetcher reaches: a node deleted
	// from it does not answer.
	stores  map[identity.NodeID]*ledger.Store
	fetcher *StoreFetcher
	slot    uint32
}

func newLab(t *testing.T, topo *topology.Graph) *lab {
	t.Helper()
	params := block.DefaultParams()
	params.Difficulty = 2 // fast unit tests
	l := &lab{
		t:       t,
		topo:    topo,
		params:  params,
		engines: make(map[identity.NodeID]*Engine),
		stores:  make(map[identity.NodeID]*ledger.Store),
	}
	var pairs []identity.KeyPair
	for _, id := range topo.Nodes() {
		key := identity.Deterministic(id, 1000)
		pairs = append(pairs, key)
		eng, err := NewEngine(key, params, topo)
		if err != nil {
			t.Fatalf("NewEngine(%v): %v", id, err)
		}
		l.engines[id] = eng
		l.stores[id] = eng.Store()
	}
	ring, err := identity.RingFor(pairs)
	if err != nil {
		t.Fatal(err)
	}
	l.ring = ring
	l.fetcher = &StoreFetcher{Lookup: func(id identity.NodeID) (*ledger.Store, bool) {
		s, ok := l.stores[id]
		return s, ok
	}}
	return l
}

// generate makes node id produce its next block and announces the digest
// to every neighbor.
func (l *lab) generate(id identity.NodeID) *block.Block {
	l.t.Helper()
	eng := l.engines[id]
	body := []byte(fmt.Sprintf("body %v slot %d", id, l.slot))
	b, err := eng.Seal(l.slot, body)
	if err != nil {
		l.t.Fatalf("Seal(%v): %v", id, err)
	}
	if _, _, err := eng.Publish(b); err != nil {
		l.t.Fatalf("Publish(%v): %v", id, err)
	}
	run := []digest.Digest{b.Header.Hash()}
	for _, nb := range l.topo.Neighbors(id) {
		if err := l.engines[nb].OnDigestsFrom(id, run); err != nil {
			l.t.Fatalf("OnDigestsFrom(%v <- %v): %v", nb, id, err)
		}
	}
	return b
}

// runSlot advances one time slot, generating blocks in the given order
// (order matters: later generators see earlier announcements).
func (l *lab) runSlot(order ...identity.NodeID) {
	l.t.Helper()
	l.slot++
	for _, id := range order {
		l.generate(id)
	}
}

// genesisAll generates a genesis block per node, in ID order.
func (l *lab) genesisAll() {
	l.t.Helper()
	for _, id := range l.topo.Nodes() {
		l.generate(id)
	}
}

// validator builds a PoP validator owned by node id.
func (l *lab) validator(id identity.NodeID, gamma int, opts ...func(*ValidatorConfig)) *Validator {
	l.t.Helper()
	v, err := l.engines[id].Validator(gamma, l.ring, opts...)
	if err != nil {
		l.t.Fatalf("Validator(%v): %v", id, err)
	}
	return v
}
