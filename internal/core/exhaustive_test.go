package core

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"testing"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/identity"
	"github.com/twoldag/twoldag/internal/topology/topologytest"
)

// smallConnected lists the connected graphs on 3 and 4 nodes, one per
// isomorphism class.
var smallConnected = []struct {
	name  string
	n     int
	edges [][2]identity.NodeID
}{
	{"path3", 3, [][2]identity.NodeID{{0, 1}, {1, 2}}},
	{"triangle", 3, [][2]identity.NodeID{{0, 1}, {1, 2}, {0, 2}}},
	{"path4", 4, [][2]identity.NodeID{{0, 1}, {1, 2}, {2, 3}}},
	{"star", 4, [][2]identity.NodeID{{0, 1}, {0, 2}, {0, 3}}},
	{"cycle4", 4, [][2]identity.NodeID{{0, 1}, {1, 2}, {2, 3}, {0, 3}}},
	{"paw", 4, [][2]identity.NodeID{{0, 1}, {1, 2}, {0, 2}, {2, 3}}},
	{"diamond", 4, [][2]identity.NodeID{{0, 1}, {1, 2}, {2, 3}, {0, 3}, {0, 2}}},
	{"complete4", 4, [][2]identity.NodeID{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}},
}

// silence makes every responder whose bit is set in mask (bit i for
// node i) time out on each REQ_CHILD, and returns the matching answers
// filter for voucherReach.
func silence(l *lab, mask uint32) func(identity.NodeID) bool {
	answers := func(j identity.NodeID) bool { return mask>>j&1 == 0 }
	l.fetcher.InterceptChild = func(j identity.NodeID, _ digest.Digest, h *block.Header, err error) (*block.Header, error) {
		if !answers(j) {
			return nil, ErrTimeout
		}
		return h, err
	}
	return answers
}

// memoFetcher answers each (responder, digest) question once from the
// StoreFetcher under it and repeats that answer after: the stores and
// the silence mask stay fixed while one is in use, so the answers would
// be the same. It only spares a sweep the responders' lookups.
type memoFetcher struct {
	*StoreFetcher
	replies map[memoKey]memoReply
}

type memoKey struct {
	peer   identity.NodeID
	target digest.Digest
}

type memoReply struct {
	h   *block.Header
	err error
}

func (m *memoFetcher) RequestChild(ctx context.Context, j identity.NodeID, target digest.Digest) (*block.Header, error) {
	k := memoKey{j, target}
	if r, ok := m.replies[k]; ok {
		return r.h, r.err
	}
	h, err := m.StoreFetcher.RequestChild(ctx, j, target)
	m.replies[k] = memoReply{h, err}
	return h, err
}

// labRefs lists every block the lab's nodes hold.
func labRefs(l *lab) []block.Ref {
	var refs []block.Ref
	for _, id := range l.topo.Nodes() {
		for seq := 0; seq < l.engines[id].Store().Len(); seq++ {
			refs = append(refs, block.Ref{Node: id, Seq: uint32(seq)})
		}
	}
	return refs
}

// reachTally counts a sweep's audits against the reachability oracle.
type reachTally struct {
	audits, reached int
	// strictMisses counts audits the oracle says reach consensus
	// where Algorithm 3's strict search alone (verifyReference's first
	// pass) does not.
	strictMisses int
	// maxProbes is the most REQ_CHILDs one audit sent, for Verify and
	// for verifyReference.
	maxProbes [2]int
}

// audit runs v's audit of ref through Verify and through
// verifyReference and fails unless each reaches consensus exactly when
// reach, voucherReach's count under the same silent responders, is at
// least γ+1.
func (s *reachTally) audit(t *testing.T, v *Validator, f Fetcher, ref block.Ref, reach int, instance string) {
	t.Helper()
	want := reach >= v.cfg.Gamma+1
	ctx := context.Background()
	got, gotErr := v.Verify(ctx, ref, f)
	model, modelErr := verifyReference(v, ctx, ref, f)
	for i, run := range []struct {
		name string
		res  *Result
		err  error
	}{{"Verify", got, gotErr}, {"verifyReference", model, modelErr}} {
		if run.err != nil && !errors.Is(run.err, ErrNoConsensus) {
			t.Fatalf("%s: %s of %v by %v (gamma %d): %v", instance, run.name, ref, v.cfg.Self, v.cfg.Gamma, run.err)
		}
		if run.res.Consensus != want {
			t.Fatalf("%s: %s of %v by %v (gamma %d): consensus %v, but %d nodes own descendants",
				instance, run.name, ref, v.cfg.Self, v.cfg.Gamma, run.res.Consensus, reach)
		}
		s.maxProbes[i] = max(s.maxProbes[i], run.res.MessagesSent-1) // all but the GET_BLOCK
	}
	s.audits++
	if want {
		s.reached++
		if model.UnionFallback {
			s.strictMisses++
		}
	}
}

// sweepLab audits every block of l from every other node, for every γ
// in gammas and every set of at most γ silent responders, holding each
// verdict to voucherReach. Validators run cold (no H_i) and share the
// verification cache.
func (s *reachTally) sweepLab(t *testing.T, l *lab, gammas []int, cache *block.VerifyCache, instance string) {
	t.Helper()
	nodes := l.topo.Nodes()
	noTrust := func(c *ValidatorConfig) { c.Trust = nil }
	validators := make(map[[2]int]*Validator)
	for _, self := range nodes {
		for _, gamma := range gammas {
			validators[[2]int{int(self), gamma}] = l.validator(self, gamma, noTrust, withVerifyCache(cache))
		}
	}
	refs := labRefs(l)
	for mask := uint32(0); mask < 1<<len(nodes); mask++ {
		silent := bits.OnesCount32(mask)
		if silent > gammas[len(gammas)-1] {
			continue
		}
		answers := silence(l, mask)
		f := &memoFetcher{StoreFetcher: l.fetcher, replies: make(map[memoKey]memoReply)}
		where := fmt.Sprintf("%s, silent %04b", instance, mask)
		for _, ref := range refs {
			reach := voucherReach(l, ref, answers)
			for _, gamma := range gammas {
				if gamma < silent {
					continue
				}
				for _, self := range nodes {
					if self == ref.Node {
						continue
					}
					s.audit(t, validators[[2]int{int(self), gamma}], f, ref, reach, where)
				}
			}
		}
	}
	l.fetcher.InterceptChild = nil
}

// TestVerdictMatchesReachExhaustive is the small-scope check of PoP's
// completeness. Over every connected graph on 3 and 4 nodes (one per
// isomorphism class), γ from 1 to n-2, every schedule of genesis plus
// two slots in which each node seals or not (in ascending ID order),
// every target, every validator but the target's owner and every set
// of at most γ responders that never answer REQ_CHILD, Verify and
// verifyReference must both reach consensus exactly when voucherReach
// counts γ+1 nodes. The largest probe count is logged beside
// DefaultStepBudget, which bounds the completeness claim. Under -short
// or the race detector only the 3-node graphs and every seventh 4-node
// schedule run.
func TestVerdictMatchesReachExhaustive(t *testing.T) {
	trim := testing.Short() || raceEnabled
	cache := block.NewVerifyCache() // the labs' keys and bodies repeat, and so do many headers
	var total reachTally
	instances := 0
	for _, g := range smallConnected {
		topo, err := topologytest.FromEdges(g.n, g.edges)
		if err != nil {
			t.Fatal(err)
		}
		var gammas []int
		for gamma := 1; gamma <= g.n-2; gamma++ {
			gammas = append(gammas, gamma)
		}
		var tally reachTally
		for sched := 0; sched < 1<<(2*g.n); sched++ {
			if trim && g.n > 3 && sched%7 != 0 {
				continue
			}
			l := newLab(t, topo)
			l.genesisAll()
			for slot := 0; slot < 2; slot++ {
				var order []identity.NodeID
				for i := 0; i < g.n; i++ {
					if sched>>(slot*g.n+i)&1 == 1 {
						order = append(order, identity.NodeID(i))
					}
				}
				l.runSlot(order...)
			}
			tally.sweepLab(t, l, gammas, cache, fmt.Sprintf("%s, schedule %0*b", g.name, 2*g.n, sched))
			instances++
		}
		t.Logf("%s: %d audits, %d reach consensus, %d of those missed by the strict search alone; largest probe count %d (strict then union: %d)",
			g.name, tally.audits, tally.reached, tally.strictMisses, tally.maxProbes[0], tally.maxProbes[1])
		total.audits += tally.audits
		total.reached += tally.reached
		total.strictMisses += tally.strictMisses
		for i, p := range tally.maxProbes {
			total.maxProbes[i] = max(total.maxProbes[i], p)
		}
	}
	if total.reached == 0 || total.reached == total.audits {
		t.Fatalf("%d of %d audits reached consensus: the sweep needs both verdicts", total.reached, total.audits)
	}
	t.Logf("%d instances, %d audits per search, %d reach consensus (%d missed by the strict search alone); largest probe count %d (strict then union: %d) of DefaultStepBudget %d",
		instances, total.audits, total.reached, total.strictMisses, total.maxProbes[0], total.maxProbes[1], DefaultStepBudget)
}

// fuzzInstance decodes a connected graph on 3-8 nodes and a block
// schedule from fuzz integers: node i > 0 hangs off node
// (tree >> 3(i-1) & 7) mod i, bit k of extra adds the k-th pair (a, b),
// a < b, in lexicographic order, and after genesis node i seals in slot
// s when bit 8s+i of seals is set — two slots, or three when bit 24 is
// — in ID order starting from (order >> 4s & 15) mod n.
func fuzzInstance(t *testing.T, nodes uint8, tree, extra, seals uint32, order uint16) *lab {
	t.Helper()
	n := 3 + int(nodes)%6
	var edges [][2]identity.NodeID
	for i := 1; i < n; i++ {
		edges = append(edges, [2]identity.NodeID{identity.NodeID(int(tree>>(3*(i-1))&7) % i), identity.NodeID(i)})
	}
	k := 0
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if extra>>k&1 == 1 {
				edges = append(edges, [2]identity.NodeID{identity.NodeID(a), identity.NodeID(b)})
			}
			k++
		}
	}
	g, err := topologytest.FromEdges(n, edges) // Link ignores repeats
	if err != nil {
		t.Fatal(err)
	}
	l := newLab(t, g)
	l.genesisAll()
	for s := 0; s < 2+int(seals>>24&1); s++ {
		start := int(order>>(4*s)&15) % n
		var sealers []identity.NodeID
		for i := 0; i < n; i++ {
			if id := (start + i) % n; seals>>(8*s+id)&1 == 1 {
				sealers = append(sealers, identity.NodeID(id))
			}
		}
		l.runSlot(sealers...)
	}
	return l
}

// FuzzVerdictMatchesReach reaches past the exhaustive sweep's bound:
// an instance on up to 8 nodes decoded from the fuzz integers
// (fuzzInstance), γ = 1 + gamma mod (n-2), the lowest γ nodes of mask
// silent, and every block audited by validator self mod n through
// Verify and verifyReference, each verdict held to voucherReach.
func FuzzVerdictMatchesReach(f *testing.F) {
	f.Add(uint8(1), uint32(0), uint32(0), uint32(0x0f0f), uint16(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint8(2), uint32(0o1234567), uint32(0x5555), uint32(0x1ff3fff), uint16(0x321), uint8(1), uint8(0x06), uint8(4))
	f.Add(uint8(5), uint32(0o7654321), uint32(0xa0a0a0), uint32(0x1a5c3e7), uint16(0x777), uint8(3), uint8(0x81), uint8(7))
	f.Fuzz(func(t *testing.T, nodes uint8, tree, extra, seals uint32, order uint16, gamma, mask, self uint8) {
		l := fuzzInstance(t, nodes, tree, extra, seals, order)
		n := len(l.topo.Nodes())
		g := 1 + int(gamma)%(n-2)
		var silent uint32
		for m := uint32(mask) & (1<<n - 1); m != 0 && bits.OnesCount32(silent) < g; m &= m - 1 {
			silent |= m & -m
		}
		answers := silence(l, silent)
		v := l.validator(identity.NodeID(int(self)%n), g, func(c *ValidatorConfig) { c.Trust = nil })
		var tally reachTally
		for _, ref := range labRefs(l) {
			if ref.Node != v.cfg.Self {
				tally.audit(t, v, l.fetcher, ref, voucherReach(l, ref, answers), fmt.Sprintf("n=%d silent %08b", n, silent))
			}
		}
	})
}
