package attack

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/core"
	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/identity"
)

func sampleHeader(t *testing.T) *block.Header {
	t.Helper()
	p := block.DefaultParams()
	p.Difficulty = 2
	b, err := p.Build(identity.Deterministic(1, 1), 0, 0, []byte("data"), []block.DigestRef{
		{Node: 1, Digest: digest.Sum([]byte("prev"))},
	})
	if err != nil {
		t.Fatal(err)
	}
	return &b.Header
}

func TestHonestPassthrough(t *testing.T) {
	h := sampleHeader(t)
	got, err := Honest{}.OnChildRequest(0, 1, digest.Digest{}, h, nil)
	if err != nil || got != h {
		t.Fatal("honest behavior altered the reply")
	}
}

func TestSilentDropsEverything(t *testing.T) {
	h := sampleHeader(t)
	if _, err := (Silent{}).OnChildRequest(0, 1, digest.Digest{}, h, nil); !errors.Is(err, core.ErrTimeout) {
		t.Fatal("silent behavior replied")
	}
	if _, err := (Silent{}).OnBlockRequest(0, 1, &block.Block{}, nil); !errors.Is(err, core.ErrTimeout) {
		t.Fatal("silent behavior served a block")
	}
}

func TestCorruptForgesButStillResponds(t *testing.T) {
	h := sampleHeader(t)
	got, err := (Corrupt{}).OnChildRequest(0, 1, digest.Digest{}, h, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Hash() == h.Hash() {
		t.Fatal("corrupt behavior did not alter the header")
	}
	if h.Digests[0].Digest == got.Digests[0].Digest {
		t.Fatal("corruption should flip a digest")
	}
	// Errors pass through untouched.
	if _, err := (Corrupt{}).OnChildRequest(0, 1, digest.Digest{}, nil, core.ErrNoChild); !errors.Is(err, core.ErrNoChild) {
		t.Fatal("corrupt should preserve upstream errors")
	}
}

func TestCorruptForgesBlocks(t *testing.T) {
	b := &block.Block{Header: *sampleHeader(t), Body: []byte("honest body")}
	got, err := (Corrupt{}).OnBlockRequest(0, 1, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Body[0] == b.Body[0] {
		t.Fatal("corrupt behavior did not alter the body")
	}
	if b.Body[0] != 'h' {
		t.Fatal("corruption mutated the caller's block")
	}
}

func TestEclipseFiltersByValidator(t *testing.T) {
	e := Eclipse{Allow: map[identity.NodeID]bool{7: true}}
	h := sampleHeader(t)
	if _, err := e.OnChildRequest(7, 1, digest.Digest{}, h, nil); err != nil {
		t.Fatal("allowed validator was eclipsed")
	}
	if _, err := e.OnChildRequest(8, 1, digest.Digest{}, h, nil); !errors.Is(err, core.ErrTimeout) {
		t.Fatal("disallowed validator got a reply")
	}
	if _, err := e.OnBlockRequest(8, 1, &block.Block{}, nil); !errors.Is(err, core.ErrTimeout) {
		t.Fatal("disallowed validator got a block")
	}
}

func TestNewByKind(t *testing.T) {
	if _, ok := New(KindSilent).(Silent); !ok {
		t.Fatal("KindSilent wrong type")
	}
	if _, ok := New(KindCorrupt).(Corrupt); !ok {
		t.Fatal("KindCorrupt wrong type")
	}
	if _, ok := New(KindEclipse).(Eclipse); !ok {
		t.Fatal("KindEclipse wrong type")
	}
	if _, ok := New("unknown").(Honest); !ok {
		t.Fatal("unknown kind must default to honest")
	}
}

func TestAssign(t *testing.T) {
	ids := []identity.NodeID{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	rng := rand.New(rand.NewSource(5))
	m := Assign(ids, 4, KindSilent, rng)
	if len(m) != 4 {
		t.Fatalf("assigned %d, want 4", len(m))
	}
	for id := range m {
		found := false
		for _, x := range ids {
			if x == id {
				found = true
			}
		}
		if !found {
			t.Fatalf("assigned unknown node %v", id)
		}
	}
	if len(Assign(ids, 0, KindSilent, rng)) != 0 {
		t.Fatal("zero assignment must be empty")
	}
	if got := Assign(ids, 99, KindSilent, rng); len(got) != len(ids) {
		t.Fatalf("over-assignment = %d, want %d", len(got), len(ids))
	}
}

func TestAssignDeterministicPerSeed(t *testing.T) {
	ids := []identity.NodeID{0, 1, 2, 3, 4}
	a := Assign(ids, 2, KindSilent, rand.New(rand.NewSource(1)))
	b := Assign(ids, 2, KindSilent, rand.New(rand.NewSource(1)))
	if len(a) != len(b) {
		t.Fatal("sizes differ")
	}
	for id := range a {
		if _, ok := b[id]; !ok {
			t.Fatal("same seed produced different assignments")
		}
	}
}
