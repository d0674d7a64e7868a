package ledger

import (
	"sync"
	"testing"

	"github.com/twoldag/twoldag/internal/identity"
)

// TestStoreConcurrentAuditReads models the parallel-audit access
// pattern: many validators read one responder's store (shared sealed
// blocks, memoized hashes) while the owner keeps appending. Run under
// -race this pins the safety of the zero-copy read path.
func TestStoreConcurrentAuditReads(t *testing.T) {
	key := identity.Deterministic(1, 1)
	s := NewStore(1)
	blocks := chainFor(t, key, 24, nil)
	for _, b := range blocks[:12] {
		if err := s.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	target := blocks[0].Header.Hash()

	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 200; n++ {
				if b, ok := oldestIn(s, target); ok {
					// Typical responder/validator reads on the shared
					// block: memoized identity and header fields.
					_ = b.Header.Hash()
					_ = b.Header.Ref()
				}
				if b, err := s.Get(0); err == nil {
					_ = b.Header.Hash()
				}
				_ = s.Latest()
				if _, err := s.Headers(); err != nil {
					t.Error(err)
				}
				_ = s.BodyBytes()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, b := range blocks[12:] {
			if err := s.Append(b); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if s.Len() != 24 {
		t.Fatalf("Len = %d, want 24", s.Len())
	}
}

// TestStoreAnswersStableUnderAppends pins what concurrent readers of a
// responder's store may rely on while its owner appends: answers about
// blocks already in the store never change, and a child appended later
// becomes visible without disturbing them.
func TestStoreAnswersStableUnderAppends(t *testing.T) {
	key := identity.Deterministic(1, 1)
	s := NewStore(1)
	blocks := chainFor(t, key, 24, nil)
	for _, b := range blocks[:12] {
		if err := s.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	inStore := blocks[4].Header.Hash() // child (seq 5) already stored
	newest := blocks[11].Header.Hash() // child (seq 12) appended below

	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 300; n++ {
				if b, ok := oldestIn(s, inStore); !ok || b.Header.Seq != 5 {
					t.Errorf("stored child moved: %v, %v", b, ok)
					return
				}
				if b, ok := oldestIn(s, newest); ok && b.Header.Seq != 12 {
					t.Errorf("child of #11 answered as #%d, want #12", b.Header.Seq)
					return
				}
				if b, err := s.Get(11); err != nil || b.Header.Seq != 11 {
					t.Errorf("Get(11) = %v, %v", b, err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, b := range blocks[12:] {
			if err := s.Append(b); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if s.Len() != 24 {
		t.Fatalf("Len = %d, want 24", s.Len())
	}
	if b, ok := oldestIn(s, newest); !ok || b.Header.Seq != 12 {
		t.Fatalf("OldestContaining(#11) = %v, %v after appends; want #12", b, ok)
	}
}

// TestTrustStoreConcurrentAddAndLookup exercises H_i under concurrent
// Add/ChildOf/Get traffic, the pattern of parallel audits caching
// verified paths.
func TestTrustStoreConcurrentAddAndLookup(t *testing.T) {
	key := identity.Deterministic(1, 1)
	ts := NewTrustStore()
	blocks := chainFor(t, key, 16, nil)

	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, b := range blocks {
				ts.Add(&b.Header)
			}
		}()
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 100; n++ {
				for _, b := range blocks {
					hh := b.Header.Hash()
					if h, ok := ts.Get(hh); ok {
						_ = h.Hash()
					}
					if h, ok := ts.ChildOf(hh); ok {
						_ = h.Hash()
					}
				}
			}
		}()
	}
	wg.Wait()
	if ts.Len() != 16 {
		t.Fatalf("Len = %d, want 16", ts.Len())
	}
}

// TestStoreSealsOnAppend verifies the seal happens before sharing, so
// later concurrent Hash calls are read-only.
func TestStoreSealsOnAppend(t *testing.T) {
	key := identity.Deterministic(1, 1)
	s := NewStore(1)
	b := chainFor(t, key, 1, nil)[0]
	if err := s.Append(b); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Get(0)
	if !got.Header.Sealed() {
		t.Fatal("stored header not sealed at append time")
	}
}
