package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"testing"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/identity"
	"github.com/twoldag/twoldag/internal/topology"
	"github.com/twoldag/twoldag/internal/topology/topologytest"
)

// voucherReference is the R_i the validator used before voucherSet
// became a slice: membership maps each node to the sequence number of
// its latest add, and snapshot sorts by it. Kept as the model the
// differential and fuzz tests below hold voucherSet to, and as the R_i
// of constructReference, whose strict search removes members.
type voucherReference struct {
	in  map[identity.NodeID]int
	seq int
}

func newVoucherReference() *voucherReference {
	return &voucherReference{in: make(map[identity.NodeID]int)}
}

func (s *voucherReference) add(id identity.NodeID) {
	if _, ok := s.in[id]; !ok {
		s.in[id] = s.seq
		s.seq++
	}
}

func (s *voucherReference) remove(id identity.NodeID) { delete(s.in, id) }

func (s *voucherReference) has(id identity.NodeID) bool {
	_, ok := s.in[id]
	return ok
}

func (s *voucherReference) len() int { return len(s.in) }

func (s *voucherReference) snapshot() []identity.NodeID {
	out := make([]identity.NodeID, 0, len(s.in))
	for id := range s.in {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return s.in[out[i]] < s.in[out[j]] })
	return out
}

// verifyReference is Validator.Verify as it was before the union-first
// search: the same target checks, then Algorithm 3's strict search
// (constructReference), and only when that exhausts a second search from
// scratch with union semantics. UnionFallback reports that the second
// search ran.
func verifyReference(v *Validator, ctx context.Context, ref block.Ref, f Fetcher) (*Result, error) {
	res := &Result{Target: ref}
	res.MessagesSent++
	blk, err := f.FetchBlock(ctx, ref)
	if err != nil {
		return res, fmt.Errorf("core: retrieving target %v: %w", ref, err)
	}
	res.MessagesReceived++
	if got := blk.Header.Ref(); got != ref {
		return res, fmt.Errorf("%w: asked for %v, got %v", ErrInvalidBlock, ref, got)
	}
	root, err := v.cfg.Params.BlockBodyRoot(blk)
	if err != nil {
		return res, fmt.Errorf("core: hashing target body: %w", err)
	}
	if root != blk.Header.Root {
		return res, fmt.Errorf("%w: %v", ErrRootMismatch, ref)
	}
	if err := v.cfg.Params.ValidateHeaderCached(&blk.Header, v.cfg.Ring, v.cfg.VerifyCache); err != nil {
		return res, fmt.Errorf("%w: %v: %v", ErrInvalidBlock, ref, err)
	}
	err = constructReference(v, ctx, ref, blk, f, res, false)
	if errors.Is(err, ErrNoConsensus) {
		res.UnionFallback = true
		err = constructReference(v, ctx, ref, blk, f, res, true)
	}
	return res, err
}

// constructReference is Validator.construct as it was before the
// union-first search: R_i in a voucherReference, dead made up front,
// excluded (V') and tried made fresh at every outer iteration and tried
// again after every rollback, a SelectionState built before the first
// TPS step. With union == false it is Algorithm 3's strict search: a
// rollback drops the exhausted node's voucher and excludes the node.
func constructReference(v *Validator, ctx context.Context, ref block.Ref, blk *block.Block, f Fetcher, res *Result, union bool) error {
	vouchers := newVoucherReference()
	vouchers.add(ref.Node)
	hdr := &blk.Header
	path := []PathStep{{Node: ref.Node, Header: hdr, HeaderHash: hdr.Hash()}}
	budget := DefaultStepBudget
	dead := make(map[digest.Digest]bool)
	st := SelectionState{
		Validator:  v.cfg.Self,
		Verifier:   ref.Node,
		InVouchers: vouchers.has,
		Topo:       v.cfg.Topo,
	}
	var nbBuf []identity.NodeID
	for {
		if v.cfg.Trust != nil {
			for vouchers.len() < v.cfg.Gamma+1 {
				cur := path[len(path)-1]
				child, ok := v.cfg.Trust.ChildOf(cur.HeaderHash)
				if !ok {
					break
				}
				hh := child.Hash()
				if dead[hh] {
					break
				}
				res.TrustHits++
				path = append(path, PathStep{Node: child.Origin, Header: child, HeaderHash: hh, ViaTrust: true})
				vouchers.add(child.Origin)
			}
		}
		if vouchers.len() >= v.cfg.Gamma+1 {
			res.Consensus = true
			res.Path = path
			res.Vouchers = vouchers.snapshot()
			v.cacheVerifiedPath(path, blk)
			return nil
		}
		excluded := make(map[identity.NodeID]bool)
		tried := make(map[identity.NodeID]bool)
		advanced := false
		for !advanced {
			if err := ctx.Err(); err != nil {
				res.Path = path
				return fmt.Errorf("core: verification canceled: %w", err)
			}
			cur := path[len(path)-1]
			cands := candidatesReference(v, cur.Node, tried, excluded, nbBuf)
			nbBuf = cands[:0]
			if len(cands) == 0 {
				res.Rollbacks++
				dead[cur.HeaderHash] = true
				if !union {
					excluded[cur.Node] = true
					vouchers.remove(cur.Node)
				}
				path = path[:len(path)-1]
				if len(path) == 0 || vouchers.len() == 0 {
					res.Path = path
					return fmt.Errorf("%w: %v: every path exhausted", ErrNoConsensus, ref)
				}
				tried = make(map[identity.NodeID]bool)
				continue
			}
			if budget--; budget < 0 {
				res.Path = path
				return fmt.Errorf("%w: %v", ErrStepBudget, ref)
			}
			st.Current = cur.Node
			st.CurrentHash = cur.HeaderHash
			st.Candidates = cands
			jPrime := v.strategy.Next(&st)
			tried[jPrime] = true
			res.MessagesSent++
			child, err := f.RequestChild(ctx, jPrime, cur.HeaderHash)
			if err != nil {
				res.Timeouts++
				continue
			}
			res.MessagesReceived++
			if !v.replyValid(child, jPrime, cur) {
				res.Timeouts++
				continue
			}
			res.HeadersFetched++
			hh := child.Hash()
			if dead[hh] {
				continue
			}
			path = append(path, PathStep{Node: jPrime, Header: child, HeaderHash: hh})
			vouchers.add(jPrime)
			advanced = true
		}
	}
}

// candidatesReference is Validator.candidates as constructReference
// called it: the neighbors of cur minus tried and excluded nodes, the
// avoided ones dropped while another remains.
func candidatesReference(v *Validator, cur identity.NodeID, tried, excluded map[identity.NodeID]bool, buf []identity.NodeID) []identity.NodeID {
	var eligible, preferred []identity.NodeID
	for _, nb := range v.cfg.Topo.AppendNeighbors(buf[:0], cur) {
		if tried[nb] || excluded[nb] {
			continue
		}
		eligible = append(eligible, nb)
		if v.cfg.Avoid == nil || !v.cfg.Avoid(nb) {
			preferred = append(preferred, nb)
		}
	}
	if len(preferred) > 0 {
		return preferred
	}
	return eligible
}

// starTopology is a hub A(0) with leaves B, C, D: every leaf's block is
// a child of A's and a dead end, so no single path holds three distinct
// nodes while the union of the explored branches does.
func starTopology(t *testing.T) *topology.Graph {
	g, err := topologytest.FromEdges(4, [][2]identity.NodeID{{0, 1}, {0, 2}, {0, 3}})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// requireSameResult fails unless the two outcomes agree in everything a
// caller can observe.
func requireSameResult(t *testing.T, what string, got, want *Result, gotErr, wantErr error) {
	t.Helper()
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, reference %v", what, gotErr, wantErr)
	}
	type counts struct {
		consensus, union                                        bool
		sent, received, fetched, hits, rollbacks, timeouts, len int
	}
	of := func(r *Result) counts {
		return counts{r.Consensus, r.UnionFallback, r.MessagesSent, r.MessagesReceived,
			r.HeadersFetched, r.TrustHits, r.Rollbacks, r.Timeouts, len(r.Path)}
	}
	if of(got) != of(want) {
		t.Fatalf("%s: counts %+v, reference %+v", what, of(got), of(want))
	}
	if fmt.Sprint(got.Vouchers) != fmt.Sprint(want.Vouchers) {
		t.Fatalf("%s: vouchers %v, reference %v", what, got.Vouchers, want.Vouchers)
	}
	for i := range got.Path {
		g, w := got.Path[i], want.Path[i]
		if g.Node != w.Node || g.HeaderHash != w.HeaderHash || g.ViaTrust != w.ViaTrust {
			t.Fatalf("%s: path step %d is %v#%d (trust=%v), reference %v#%d (trust=%v)", what, i,
				g.Node, g.Header.Seq, g.ViaTrust, w.Node, w.Header.Seq, w.ViaTrust)
		}
	}
}

// TestConstructMatchesReference runs every path-construction shape the
// package's tests script — green path, micro-loop, rollback, strict
// exhaustion with a failing and with a succeeding union retry, routing
// around a silent node — through Verify and through verifyReference on
// two identically built labs, twice each so the second audit runs on
// the H_i the first one filled. Where the reference's strict search
// rolls nothing back, the two searches ask the same questions in the
// same order, and the results must be identical. Where it rolls back,
// the union-first search keeps what the strict one drops, so only the
// verdict must agree, and each voucher set must hold γ+1 owners of
// blocks that descend from the target.
func TestConstructMatchesReference(t *testing.T) {
	silentD := func(l *lab) { silence(l, 1<<3) }
	cases := []struct {
		name      string
		topo      func(*testing.T) *topology.Graph
		build     func(*lab)
		validator identity.NodeID
		gamma     int
		target    block.Ref
		want      func(*Result) bool // the reference's shape the case exists for
	}{
		{
			name: "fig4 green path", topo: func(*testing.T) *topology.Graph { return topologytest.PaperFig4() },
			build:     func(l *lab) { l.genesisAll(); l.runSlot(1, 3, 4) },
			validator: 0, gamma: 2, target: block.Ref{Node: 1, Seq: 1},
			want: func(r *Result) bool { return r.Consensus && r.Rollbacks == 0 },
		},
		{
			name: "fig6 micro-loop", topo: func(*testing.T) *topology.Graph { return topologytest.PaperFig6() },
			build: func(l *lab) {
				l.genesisAll()
				for s := 0; s < 4; s++ {
					l.runSlot(1, 0)
				}
				l.runSlot(2)
			},
			validator: 0, gamma: 2, target: block.Ref{Node: 1, Seq: 1},
			want: func(r *Result) bool { return r.Consensus && r.MicroLoopBlocks() > 0 },
		},
		{
			name: "rollback then succeed", topo: rollbackTopology,
			build:     func(l *lab) { l.genesisAll(); l.runSlot(0, 1, 2, 3) },
			validator: 3, gamma: 2, target: block.Ref{Node: 0, Seq: 1},
			want: func(r *Result) bool { return r.Consensus && r.Rollbacks > 0 && !r.UnionFallback },
		},
		{
			name: "union retry fails", topo: func(*testing.T) *topology.Graph { return topologytest.PaperFig6() },
			build:     func(l *lab) { l.genesisAll(); l.runSlot(1, 0); l.runSlot(2) },
			validator: 0, gamma: 3, target: block.Ref{Node: 1, Seq: 1},
			want: func(r *Result) bool { return !r.Consensus && r.UnionFallback },
		},
		{
			name: "union retry succeeds", topo: starTopology,
			build:     func(l *lab) { l.genesisAll(); l.runSlot(0, 1, 2, 3) },
			validator: 3, gamma: 2, target: block.Ref{Node: 0, Seq: 1},
			want: func(r *Result) bool { return r.Consensus && r.UnionFallback && r.Rollbacks > 0 },
		},
		{
			name: "silent node", topo: func(*testing.T) *topology.Graph { return topologytest.PaperFig4() },
			build: func(l *lab) {
				l.genesisAll()
				for s := 0; s < 3; s++ {
					l.runSlot(1, 2, 3, 4, 0)
				}
				silentD(l)
			},
			validator: 0, gamma: 2, target: block.Ref{Node: 1, Seq: 1},
			want: func(r *Result) bool { return r.Consensus && r.Timeouts > 0 },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ours, model := newLab(t, tc.topo(t)), newLab(t, tc.topo(t))
			tc.build(ours)
			tc.build(model)
			v, vRef := ours.validator(tc.validator, tc.gamma), model.validator(tc.validator, tc.gamma)
			ctx := context.Background()
			exact := true
			for _, pass := range []string{"cold", "warm"} {
				got, gotErr := v.Verify(ctx, tc.target, ours.fetcher)
				want, wantErr := verifyReference(vRef, ctx, tc.target, model.fetcher)
				if pass == "cold" {
					if !tc.want(want) {
						t.Fatalf("case no longer exercises its shape: %+v (err %v)", want, wantErr)
					}
					exact = want.Rollbacks == 0
				}
				if exact {
					requireSameResult(t, pass, got, want, gotErr, wantErr)
					continue
				}
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || got.Consensus != want.Consensus {
					t.Fatalf("%s: consensus %v (%v), reference %v (%v)", pass, got.Consensus, gotErr, want.Consensus, wantErr)
				}
				owners := descendantOwners(ours, tc.target, nil)
				for _, r := range []*Result{got, want} {
					if r.Consensus && len(r.Vouchers) != tc.gamma+1 {
						t.Fatalf("%s: vouchers %v, want %d", pass, r.Vouchers, tc.gamma+1)
					}
					for _, id := range r.Vouchers {
						if !owners[id] {
							t.Fatalf("%s: voucher %v owns no descendant of the target (vouchers %v)", pass, id, r.Vouchers)
						}
					}
				}
			}
		})
	}
}

// runVoucherProgram interprets prog against both sets, one byte per
// step: the top two bits pick add / has / snapshot (2 and 3), the low
// four the node, so IDs collide.
func runVoucherProgram(t *testing.T, prog []byte) {
	t.Helper()
	set, model := &voucherSet{}, newVoucherReference()
	for i, b := range prog {
		id := identity.NodeID(b & 0x0f)
		switch b >> 6 {
		case 0:
			set.add(id)
			model.add(id)
		case 1:
			if set.has(id) != model.has(id) {
				t.Fatalf("step %d: has(%v) = %v, reference %v", i, id, set.has(id), model.has(id))
			}
		}
		// Every step ends on the full comparison, so cases 2 and 3 are
		// the snapshot op and the others check it for free.
		if set.len() != model.len() {
			t.Fatalf("step %d: len %d, reference %d", i, set.len(), model.len())
		}
		if got, want := set.snapshot(), model.snapshot(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("step %d: snapshot %v, reference %v", i, got, want)
		}
	}
}

const (
	opAdd  = 0 << 6
	opHas  = 1 << 6
	opSnap = 3 << 6
)

// voucherSeedPrograms are the orderings that matter: plain joins in
// order and a duplicate add, which keeps the member's place.
var voucherSeedPrograms = [][]byte{
	{},
	{opAdd | 1, opAdd | 2, opAdd | 3, opSnap},
	{opAdd | 1, opAdd | 1, opHas | 1, opHas | 2},
	{opAdd | 3, opAdd | 1, opAdd | 3, opAdd | 2, opSnap, opHas | 2},
}

func TestVoucherSetMatchesReference(t *testing.T) {
	for _, prog := range voucherSeedPrograms {
		runVoucherProgram(t, prog)
	}
	// snapshot is a copy: later mutation must not reach it.
	s := &voucherSet{}
	s.add(1)
	s.add(2)
	snap := s.snapshot()
	s.ids[0] = 9
	if snap[0] != 1 {
		t.Fatalf("snapshot aliases the set: %v", snap)
	}
}

// FuzzVoucherSetMatchesReference holds the slice-backed R_i to the map
// it replaced over arbitrary add/has/snapshot programs.
func FuzzVoucherSetMatchesReference(f *testing.F) {
	for _, prog := range voucherSeedPrograms {
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		runVoucherProgram(t, prog)
	})
}
