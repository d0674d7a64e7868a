package core

import (
	"testing"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/identity"
	"github.com/twoldag/twoldag/internal/ledger"
	"github.com/twoldag/twoldag/internal/topology/topologytest"
)

// TestNewEngineWithState: an engine runs on the State it is given, a
// TrustCap caps that state's H_i, a State of another node is refused,
// and a Backend journals every structure of the state, so a fresh
// backend on the same dir recovers the engine's S_i and A_i.
func TestNewEngineWithState(t *testing.T) {
	g := topologytest.PaperFig6() // 0 - 1 - 2
	params := block.DefaultParams()
	params.Difficulty = 0
	key := identity.Deterministic(0, 1)
	recoverOpts := ledger.RecoverOptions{Owner: key.ID, Params: params}

	if _, err := NewEngineWith(key, params, g, EngineOptions{State: ledger.NewNodeState(1, 0)}); err == nil {
		t.Fatal("a state owned by node 1 was accepted for node 0")
	}
	if eng, err := NewEngineWith(key, params, g, EngineOptions{TrustCap: 2}); err != nil {
		t.Fatal(err)
	} else if got := eng.State().TrustCap; got != 2 {
		t.Fatalf("nil State with TrustCap 2: trust cap %d", got)
	}

	dir := t.TempDir()
	fb, err := ledger.OpenFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := fb.Recover(recoverOpts)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngineWith(key, params, g, EngineOptions{State: st, TrustCap: 3, Backend: fb})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Store() != st.Store || eng.Trust() != st.Trust || eng.Cache() != st.Cache {
		t.Fatal("the engine does not run on the injected state")
	}
	if got := eng.State().TrustCap; got != 3 {
		t.Fatalf("trust cap %d, want 3", got)
	}
	announced := digest.Sum([]byte("node 1's newest block"))
	if err := eng.OnDigestsFrom(1, []digest.Digest{announced}); err != nil {
		t.Fatal(err)
	}
	b, err := eng.Seal(1, []byte("body"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.Publish(b); err != nil {
		t.Fatal(err)
	}
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}

	fb, err = ledger.OpenFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	got, err := fb.Recover(recoverOpts)
	if err != nil {
		t.Fatal(err)
	}
	if got.Store.Len() != 1 {
		t.Fatalf("recovered %d blocks, want 1", got.Store.Len())
	}
	if d, ok := got.Cache.Get(1); !ok || d != announced {
		t.Fatalf("recovered A_i entry for node 1: %v %v, want %v", d, ok, announced)
	}
}
