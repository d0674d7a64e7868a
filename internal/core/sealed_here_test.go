package core

import (
	"context"
	"errors"
	"testing"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/identity"
	"github.com/twoldag/twoldag/internal/ledger"
	"github.com/twoldag/twoldag/internal/topology/topologytest"
)

// sharedLab is newLab with every engine on one verification cache, as
// the simulator's and a Cluster's are. keys, when it names a node,
// replaces that node's lab key for its engine; the ring keeps the lab
// key.
func sharedLab(t *testing.T, keys map[identity.NodeID]identity.KeyPair) (*lab, *block.VerifyCache) {
	t.Helper()
	l := newLab(t, topologytest.PaperFig4())
	cache := block.NewVerifyCache()
	for _, id := range l.topo.Nodes() {
		key, ok := keys[id]
		if !ok {
			key = identity.Deterministic(id, 1000)
		}
		eng, err := NewEngineWith(key, l.params, l.topo, EngineOptions{VerifyCache: cache})
		if err != nil {
			t.Fatal(err)
		}
		l.engines[id] = eng
		l.stores[id] = eng.Store()
	}
	return l, cache
}

// foreignBlock builds the block that fits next in store, for its owner,
// signed with a key the lab's ring does not hold for it.
func foreignBlock(t *testing.T, l *lab, store *ledger.Store) *block.Block {
	t.Helper()
	owner := store.Owner()
	var prev digest.Digest
	if latest := store.Latest(); latest != nil {
		prev = latest.Header.Hash()
	}
	b, err := l.params.Build(identity.Deterministic(owner, 999), l.slot, uint32(store.Len()), []byte("forged"), []block.DigestRef{{Node: owner, Digest: prev}})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// rejected checks that a validator on cache refuses h for its
// signature, directly and as an audit target, and leaves no verdict on
// it in the cache.
func rejected(t *testing.T, l *lab, cache *block.VerifyCache, h *block.Header) {
	t.Helper()
	before := cache.Len()
	if err := l.params.ValidateHeaderCached(h, l.ring, cache); !errors.Is(err, identity.ErrBadSignature) {
		t.Fatalf("ValidateHeaderCached(%v) = %v, want %v", h.Ref(), err, identity.ErrBadSignature)
	}
	if _, err := l.validator(0, 1).Verify(context.Background(), h.Ref(), l.fetcher); !errors.Is(err, ErrInvalidBlock) {
		t.Fatalf("audit of %v: %v, want %v", h.Ref(), err, ErrInvalidBlock)
	}
	if got := cache.Len(); got != before {
		t.Fatalf("refusing %v changed the cache: %d -> %d verdicts", h.Ref(), before, got)
	}
}

// TestSealedHereNeedsRingKey: an engine sealing for node 1 with a key
// the ring does not hold for node 1 seals and publishes its blocks
// like any other, and is registered as node 1's signer; a validator
// sharing its cache still verifies their signatures and refuses them.
func TestSealedHereNeedsRingKey(t *testing.T) {
	l, cache := sharedLab(t, map[identity.NodeID]identity.KeyPair{1: identity.Deterministic(1, 999)})
	l.genesisAll()
	l.runSlot(1, 3, 4)
	for seq := range uint32(2) {
		b, err := l.stores[1].Get(seq)
		if err != nil {
			t.Fatal(err)
		}
		rejected(t, l, cache, &b.Header)
		if err := l.params.ValidateHeaderCached(&b.Header, l.ring, cache); !errors.Is(err, identity.ErrBadSignature) {
			t.Fatalf("second check of %v: %v", b.Header.Ref(), err)
		}
	}
	// The other engines hold the ring's keys: their headers pass.
	b, err := l.stores[3].Get(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.params.ValidateHeaderCached(&b.Header, l.ring, cache); err != nil {
		t.Fatalf("honest header %v: %v", b.Header.Ref(), err)
	}
}

// TestForeignBlocksStillVerified: a validator sharing the cache
// verifies in full every header a registered engine did not seal and
// publish itself, though its engine's store holds it: a badly signed
// block appended straight to the store, one handed to Publish without
// the engine's Seal, and one carried in by EngineOptions.State. Each
// is refused, also while the engine goes on sealing blocks of its own
// around it.
func TestForeignBlocksStillVerified(t *testing.T) {
	t.Run("Store.Append", func(t *testing.T) {
		l, cache := sharedLab(t, nil)
		l.genesisAll()
		store := l.stores[1]
		bad := foreignBlock(t, l, store)
		if err := store.Append(bad); err != nil {
			t.Fatal(err)
		}
		l.runSlot(1, 3, 4)
		rejected(t, l, cache, &bad.Header)
	})
	t.Run("Publish", func(t *testing.T) {
		l, cache := sharedLab(t, nil)
		l.genesisAll()
		bad := foreignBlock(t, l, l.stores[1])
		if _, _, err := l.engines[1].Publish(bad); err != nil {
			t.Fatal(err)
		}
		l.runSlot(1, 3, 4)
		rejected(t, l, cache, &bad.Header)
	})
	t.Run("State", func(t *testing.T) {
		l, cache := sharedLab(t, nil)
		st := ledger.NewNodeState(1, 0)
		bad := foreignBlock(t, l, st.Store)
		if err := st.Store.Append(bad); err != nil {
			t.Fatal(err)
		}
		eng, err := NewEngineWith(identity.Deterministic(1, 1000), l.params, l.topo, EngineOptions{State: st, VerifyCache: cache})
		if err != nil {
			t.Fatal(err)
		}
		l.engines[1], l.stores[1] = eng, st.Store
		for _, id := range l.topo.Nodes() {
			if id != 1 {
				l.generate(id)
			}
		}
		l.runSlot(1, 3, 4)
		rejected(t, l, cache, &bad.Header)
	})
}

// TestSealedHereSkipsOnlyTheSignature: a header its own engine sealed
// still has its version and proof-of-work checked under the
// validator's Params, so a validator demanding more work than the
// engine did refuses it, as it refuses any other; the engine's honest
// headers pass a validator on the same Params.
func TestSealedHereSkipsOnlyTheSignature(t *testing.T) {
	l, cache := sharedLab(t, nil)
	l.genesisAll()
	l.runSlot(1, 3, 4)
	b, err := l.stores[1].Get(1)
	if err != nil {
		t.Fatal(err)
	}
	harder := l.params
	for harder.Difficulty = l.params.Difficulty + 1; ; harder.Difficulty++ {
		if harder.ValidateHeader(&b.Header, l.ring) != nil {
			break
		}
	}
	if err := harder.ValidateHeaderCached(&b.Header, l.ring, cache); !errors.Is(err, block.ErrPowUnsatisfied) {
		t.Fatalf("harder PoW: %v, want %v", err, block.ErrPowUnsatisfied)
	}
	other := l.params
	other.Version++
	if err := other.ValidateHeaderCached(&b.Header, l.ring, cache); !errors.Is(err, block.ErrBadVersion) {
		t.Fatalf("other version: %v, want %v", err, block.ErrBadVersion)
	}
	if n := cache.Len(); n != 0 {
		t.Fatalf("failed checks cached %d verdicts", n)
	}
	if err := l.params.ValidateHeaderCached(&b.Header, l.ring, cache); err != nil {
		t.Fatal(err)
	}
}
