package twoldag

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/twoldag/twoldag/internal/block"
)

// sealedLog records the header hash of every block reported sealed.
type sealedLog struct {
	NopObserver
	mu     sync.Mutex
	digest map[Ref]Digest
}

func (l *sealedLog) OnBlockSealed(e BlockSealed) {
	l.mu.Lock()
	l.digest[e.Ref] = e.Digest
	l.mu.Unlock()
}

func (l *sealedLog) of(ref Ref) (Digest, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	d, ok := l.digest[ref]
	return d, ok
}

// TestDurableReadsAcrossCompactions: on a durable cluster a block's
// body moves off the heap into its owner's segment at the compaction
// that commits it, and is read back from there whenever the block is
// asked for whole. Readers — Block, ProveSample and Audit, on three
// goroutines — run against every block sealed so far while SubmitBatch
// seals on through five compactions of the shared log, and pause only
// for a Silence/Restart of one device (membership changes must not
// race them). Every block served must be the block sealed:
// its header hashes to the digest OnBlockSealed reported, its body is
// the data submitted — so it encodes to the same bytes on every read,
// from the heap or from the segment — and a sample proof of it and any
// consensus reached on it check against that header.
func TestDurableReadsAcrossCompactions(t *testing.T) {
	dir := t.TempDir()
	sealed := &sealedLog{digest: map[Ref]Digest{}}
	rt := compactEvery(newRuntime(t, append(baseOptions(6, 1), WithDataDir(dir), WithObserver(sealed))...), 3)
	c := rt.(*Cluster)
	ids := rt.Nodes()

	var (
		mu    sync.Mutex
		refs  []Ref
		data  = map[Ref][]byte{}
		first = map[Ref][]byte{} // the encoding of the first read
	)
	// gate: readers hold it shared per call; Silence/Restart exclusively.
	var gate sync.RWMutex
	check := func(ref Ref, b *Block) error {
		want, ok := sealed.of(ref)
		mu.Lock()
		defer mu.Unlock()
		switch {
		case !ok || b.Header.Hash() != want:
			return fmt.Errorf("%v: served header is not the one sealed", ref)
		case !bytes.Equal(b.Body, data[ref]):
			return fmt.Errorf("%v: served body is not the data submitted", ref)
		}
		enc := block.Encode(b)
		if prev, ok := first[ref]; ok && !bytes.Equal(prev, enc) {
			return fmt.Errorf("%v: encodes to other bytes than on its first read", ref)
		}
		first[ref] = enc
		return nil
	}
	read := func(rng *rand.Rand, op int) error {
		gate.RLock()
		defer gate.RUnlock()
		mu.Lock()
		if len(refs) == 0 {
			mu.Unlock()
			return nil
		}
		ref := refs[rng.Intn(len(refs))]
		mu.Unlock()
		b, err := c.Block(ref)
		if err != nil {
			return fmt.Errorf("Block(%v): %w", ref, err)
		}
		if err := check(ref, b); err != nil {
			return err
		}
		switch op % 3 {
		case 1:
			sp, err := c.ProveSample(ref, 0)
			if err != nil {
				return fmt.Errorf("ProveSample(%v): %w", ref, err)
			}
			if err := c.params.VerifySample(&b.Header, sp); err != nil {
				return fmt.Errorf("sample of %v: %w", ref, err)
			}
		case 2:
			validator := ids[(int(ref.Node)+1+rng.Intn(len(ids)-1))%len(ids)]
			res, err := c.Audit(context.Background(), validator, ref)
			if err != nil && !errors.Is(err, ErrNoConsensus) {
				return fmt.Errorf("audit of %v by %v: %w", ref, validator, err)
			}
			if err == nil && res.Path[0].Header.Hash() != b.Header.Hash() {
				return fmt.Errorf("audit of %v reached consensus on another block", ref)
			}
		}
		return nil
	}

	const readerCount = 3
	stop, errs := make(chan struct{}), make(chan error, readerCount)
	var readers sync.WaitGroup
	var reads atomic.Int64
	stopReaders := sync.OnceFunc(func() { close(stop); readers.Wait() })
	defer stopReaders() // before the runtime closes, should the test fail early
	for r := 0; r < readerCount; r++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(seed))
			for op := 0; ; op++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := read(rng, op); err != nil {
					errs <- err
					return
				}
				reads.Add(1)
			}
		}(int64(r))
	}

	ctx := context.Background()
	const victim = NodeID(2)
	// A compaction every three slots, and 16 blocks a device — twice the
	// eight a store keeps from recent reads — so blocks are read back
	// from the segment again and again. (One block a device a slot: with
	// two, no neighbour's Δ would name the first, only its owner's next.)
	for slot := 0; slot < 16; slot++ {
		rt.AdvanceSlot()
		batch := slotBatch(ids, 1, fmt.Sprint("slot ", slot))
		got, err := rt.SubmitBatch(ctx, batch)
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		for i, ref := range got {
			data[ref] = batch[i].Data
		}
		refs = append(refs, got...)
		mu.Unlock()
		if slot == 7 {
			gate.Lock()
			if err := rt.Silence(victim); err != nil {
				t.Fatal(err)
			}
			if err := c.Restart(victim); err != nil {
				t.Fatal(err)
			}
			gate.Unlock()
		}
	}
	stopReaders()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	t.Logf("%d reads of %d distinct blocks while %d were sealed", reads.Load(), len(first), len(refs))
	if len(first) < len(ids) {
		t.Fatalf("the readers read only %d distinct blocks", len(first))
	}
	if info, err := os.Stat(filepath.Join(dir, fmt.Sprintf("node-%d", victim), "blocks.seg")); err != nil || info.Size() == 0 {
		t.Fatalf("no block reached a segment: %v", err)
	}
	// And afterwards, every block still reads back as sealed.
	for _, ref := range refs {
		b, err := c.Block(ref)
		if err != nil {
			t.Fatal(err)
		}
		if err := check(ref, b); err != nil {
			t.Fatal(err)
		}
	}
}
