package ledger

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/identity"
)

// cacheReference is A_i as the paper states it: a map from neighbor
// to that neighbor's newest digest. The sorted parallel slices of
// DigestCache must be indistinguishable from it.
type cacheReference map[identity.NodeID]digest.Digest

// entries is the reference's checkpoint branch: the entry count, then
// each entry's node and digest in node order.
func (r cacheReference) entries() []byte {
	ids := make([]identity.NodeID, 0, len(r))
	for j := range r {
		ids = append(ids, j)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(ids)))
	for _, j := range ids {
		d := r[j]
		out = binary.LittleEndian.AppendUint32(out, uint32(j))
		out = append(out, d[:]...)
	}
	return out
}

// journalRecord is one digest-cache journal call; forget marks a
// LogForget.
type journalRecord struct {
	from   identity.NodeID
	d      digest.Digest
	forget bool
}

// cacheJournal records the calls a DigestCache makes on its journal.
type cacheJournal struct {
	t       testing.TB
	records []journalRecord
}

func (j *cacheJournal) logBlock(*Store, *block.Block) (walSpan, error) {
	j.t.Fatal("the digest cache journaled a block")
	return walSpan{}, nil
}

func (j *cacheJournal) LogTrust(*block.Header, int64) error {
	j.t.Fatal("the digest cache journaled a header")
	return nil
}

func (j *cacheJournal) LogDigest(from identity.NodeID, d digest.Digest) error {
	j.records = append(j.records, journalRecord{from: from, d: d})
	return nil
}

func (j *cacheJournal) LogForget(from identity.NodeID) error {
	j.records = append(j.records, journalRecord{from: from, forget: true})
	return nil
}

// cacheNodes and cacheDigests bound a program's operands so that
// senders repeat, entries are forgotten and re-inserted at every sorted
// position, and one digest is announced by several senders.
const cacheNodes, cacheDigests = 12, 8

// cachePair drives a DigestCache and the reference through one program
// (read as in trustProgram) and keeps the journal the cache should
// have written.
type cachePair struct {
	t       testing.TB
	got     *DigestCache
	want    cacheReference
	journal *cacheJournal
	records []journalRecord // what journal must hold
	checked int             // records already compared with journal

	// What the program exercised, for the seeded test's power check.
	absentForgets, repeatedBatches int
}

func newCachePair(t testing.TB) *cachePair {
	p := &cachePair{t: t, got: NewDigestCache(), want: cacheReference{}, journal: &cacheJournal{t: t}}
	p.got.SetJournal(p.journal)
	return p
}

func cacheNode(b int) identity.NodeID { return identity.NodeID(b % cacheNodes) }

func cacheDigest(b int) digest.Digest { return digest.Sum([]byte{byte(b % cacheDigests)}) }

// step runs one operation; false means the program is over.
func (p *cachePair) step(prog *trustProgram) bool {
	op, ok := prog.next()
	if !ok {
		return false
	}
	switch op % 8 {
	case 0, 1:
		j, d := cacheNode(prog.arg()), cacheDigest(prog.arg())
		p.got.Update(j, d)
		p.apply(j, d)
	case 2, 3:
		n := prog.arg() % 6
		from := make([]identity.NodeID, n)
		ds := make([]digest.Digest, n)
		seen := map[identity.NodeID]bool{}
		for i := range from {
			from[i], ds[i] = cacheNode(prog.arg()), cacheDigest(prog.arg())
			if seen[from[i]] {
				p.repeatedBatches++
			}
			seen[from[i]] = true
		}
		p.got.UpdateBatch(from, ds)
		for i := range from {
			p.apply(from[i], ds[i])
		}
	case 4:
		j := cacheNode(prog.arg())
		p.got.Forget(j)
		if _, ok := p.want[j]; ok {
			delete(p.want, j)
			p.records = append(p.records, journalRecord{from: j, forget: true})
		} else {
			p.absentForgets++
		}
	case 5:
		j := cacheNode(prog.arg())
		g, gok := p.got.Get(j)
		w, wok := p.want[j]
		if g != w || gok != wok {
			p.t.Fatalf("Get(%v) = %s %v, reference %s %v", j, g, gok, w, wok)
		}
	case 6:
		owner, prev := cacheNode(prog.arg()), cacheDigest(prog.arg())
		nbs := make([]identity.NodeID, prog.arg()%8)
		for i := range nbs {
			nbs[i] = cacheNode(prog.arg())
		}
		p.checkSnapshot(owner, prev, nbs)
	default:
		if g, w := p.got.Len(), len(p.want); g != w {
			p.t.Fatalf("Len = %d, reference %d", g, w)
		}
	}
	return true
}

// apply is one upsert on the reference and the journal it owes.
func (p *cachePair) apply(j identity.NodeID, d digest.Digest) {
	p.want[j] = d
	p.records = append(p.records, journalRecord{from: j, d: d})
}

// checkSnapshot compares the Δ field both build for a block of owner.
func (p *cachePair) checkSnapshot(owner identity.NodeID, prev digest.Digest, nbs []identity.NodeID) {
	p.t.Helper()
	want := []block.DigestRef{{Node: owner, Digest: prev}}
	for _, j := range nbs {
		want = append(want, block.DigestRef{Node: j, Digest: p.want[j]})
	}
	scratch := []block.DigestRef{{Node: 99}} // AppendSnapshot appends after it
	got := p.got.AppendSnapshot(scratch, owner, prev, nbs)
	if got[0].Node != 99 || !reflect.DeepEqual(got[1:], want) {
		p.t.Fatalf("AppendSnapshot(%v, %v) = %v, reference %v", owner, nbs, got[1:], want)
	}
	if got := p.got.AppendSnapshot(nil, owner, prev, nbs); !reflect.DeepEqual(got, want) {
		p.t.Fatalf("AppendSnapshot(nil, %v, %v) = %v, reference %v", owner, nbs, got, want)
	}
}

// checkAll compares every observable: Get and the snapshot over every
// node in range, Len, the checkpoint branch, and the journal.
func (p *cachePair) checkAll() {
	p.t.Helper()
	all := make([]identity.NodeID, cacheNodes)
	for j := range all {
		all[j] = identity.NodeID(j)
		g, gok := p.got.Get(all[j])
		w, wok := p.want[all[j]]
		if g != w || gok != wok {
			p.t.Fatalf("Get(%v) = %s %v, reference %s %v", all[j], g, gok, w, wok)
		}
	}
	p.checkSnapshot(0, digest.Digest{}, all)
	if g, w := p.got.Len(), len(p.want); g != w {
		p.t.Fatalf("Len = %d, reference %d", g, w)
	}
	if !bytes.Equal(p.got.appendEntries(nil), p.want.entries()) {
		p.t.Fatal("checkpoint A_i branch differs from the reference")
	}
	// Records before checked were compared by an earlier check and are
	// append-only since.
	got, want := p.journal.records, p.records
	if len(got) != len(want) || !reflect.DeepEqual(got[p.checked:], want[p.checked:]) {
		p.t.Fatalf("journal %v, want %v", got, want)
	}
	p.checked = len(want)
}

// TestDigestCacheMatchesReference drives A_i and a plain map with the
// same seeded streams of updates, batches, forgets and reads, and
// requires every observable — and the journal, in apply order — to
// agree after every step.
func TestDigestCacheMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			prog := &trustProgram{code: randomTrustProgram(rand.New(rand.NewSource(seed)), 4096)}
			p := newCachePair(t)
			for p.step(prog) {
				p.checkAll()
			}
			if len(p.records) < 200 || p.absentForgets == 0 || p.repeatedBatches == 0 {
				t.Fatalf("weak stream: %d journal records, %d forgets of absent nodes, %d repeated batch senders",
					len(p.records), p.absentForgets, p.repeatedBatches)
			}
		})
	}
}

// FuzzDigestCacheMatchesReference runs the seeded test's check on
// programs the fuzzer picks by seed and length. The arguments are
// integers, not the program bytes, so the engine's input minimization
// stays cheap (see FuzzRecoverMatchesReference).
func FuzzDigestCacheMatchesReference(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(seed, uint16(512))
	}
	f.Fuzz(func(t *testing.T, seed int64, length uint16) {
		p := newCachePair(t)
		prog := &trustProgram{code: randomTrustProgram(rand.New(rand.NewSource(seed)), int(length%4096))}
		for p.step(prog) {
			p.checkAll()
		}
	})
}
