package block

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/twoldag/twoldag/internal/digest"
)

// internedLen returns the number of entries in the intern table, live
// or awaiting their cleanup.
func (c *VerifyCache) internedLen() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		n += len(s.interned)
		s.mu.RUnlock()
	}
	return n
}

func decodeCopy(t testing.TB, enc []byte) *Header {
	t.Helper()
	h, err := DecodeHeader(enc)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestInternReturnsFirstHeader: decodes of one header's bytes resolve
// to the first one interned, a header with another hash gets its own
// entry, and a hit allocates nothing.
func TestInternReturnsFirstHeader(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	enc := AppendEncodeHeader(nil, randomHeader(r))
	c := NewVerifyCache()

	first := decodeCopy(t, enc)
	if got := c.Intern(first); got != first {
		t.Fatal("first Intern did not return its argument")
	}
	if !first.Sealed() {
		t.Fatal("Intern registered an unsealed header")
	}
	if got := c.Intern(decodeCopy(t, enc)); got != first {
		t.Fatal("second decode of the same bytes did not resolve to the first")
	}
	if got := c.Interned(first.Hash()); got != first {
		t.Fatal("Interned does not find the registered header")
	}

	other := decodeCopy(t, AppendEncodeHeader(nil, randomHeader(r)))
	if got := c.Intern(other); got != other {
		t.Fatal("a header with another hash resolved to an existing entry")
	}
	if n := c.internedLen(); n != 2 {
		t.Fatalf("intern table holds %d entries, want 2", n)
	}
	if n := c.Len(); n != 0 {
		t.Fatalf("interning marked %d headers verified", n)
	}

	again := decodeCopy(t, enc)
	again.Seal()
	if got := testing.AllocsPerRun(100, func() {
		if c.Intern(again) != first {
			t.Fatal("hit resolved to another header")
		}
	}); got != 0 {
		t.Errorf("an Intern hit allocates %v times, want 0", got)
	}
	runtime.KeepAlive(first)
	runtime.KeepAlive(other)
}

// TestInternLetsGo: the table holds headers weakly. Once the last
// strong reference drops, a collection clears the entry, and a fresh
// copy of the same bytes then registers itself.
func TestInternLetsGo(t *testing.T) {
	enc := AppendEncodeHeader(nil, randomHeader(rand.New(rand.NewSource(2))))
	c := NewVerifyCache()
	d := func() digest.Digest {
		h := decodeCopy(t, enc)
		c.Intern(h)
		return h.Hash()
	}()
	for i := 0; i < 100 && c.internedLen() > 0; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond) // cleanups run on their own goroutine
	}
	if n := c.internedLen(); n != 0 {
		t.Fatalf("intern table still holds %d entries after the header became unreachable", n)
	}
	if c.Interned(d) != nil {
		t.Fatal("Interned returned a collected header")
	}
	fresh := decodeCopy(t, enc)
	if got := c.Intern(fresh); got != fresh {
		t.Fatal("a fresh copy did not register after the entry was cleared")
	}
	if n := c.internedLen(); n != 1 {
		t.Fatalf("intern table holds %d entries, want 1", n)
	}
	runtime.KeepAlive(fresh)
}

// TestInternConcurrent: goroutines interning copies of one header at
// once all get one pointer. Run it under -race.
func TestInternConcurrent(t *testing.T) {
	const workers = 8
	r := rand.New(rand.NewSource(3))
	c := NewVerifyCache()
	for round := 0; round < 20; round++ {
		enc := AppendEncodeHeader(nil, randomHeader(r))
		copies := make([]*Header, workers)
		for i := range copies {
			copies[i] = decodeCopy(t, enc)
		}
		got := make([]*Header, workers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range copies {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				got[i] = c.Intern(copies[i])
			}()
		}
		close(start)
		wg.Wait()
		for i, h := range got {
			if h != got[0] {
				t.Fatalf("round %d: worker %d got another header than worker 0", round, i)
			}
		}
	}
}
