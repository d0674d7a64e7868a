package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	twoldag "github.com/twoldag/twoldag"
	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/core"
	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/identity"
	"github.com/twoldag/twoldag/internal/ledger"
	"github.com/twoldag/twoldag/internal/transport"
	"github.com/twoldag/twoldag/internal/wire"
)

// Layer drills time calls into one layer's exported functions, on a
// chain of blocks shaped like the workloads' (1 KiB bodies, Δ of the
// owner's previous block plus eight neighbours). README.md lists the
// internal entry points used here, so a refactor knows what it pins.

const (
	drillChain    = 300 // blocks: one snapshot of 256 plus a 44-block WAL tail
	drillSnapshot = 256
	drillDegree   = 8
)

// timeEach returns the median duration of fn(i), i in [0,n), in ns.
func timeEach(n int, fn func(i int)) float64 {
	ns := make([]float64, n)
	for i := range ns {
		t0 := time.Now()
		fn(i)
		ns[i] = float64(time.Since(t0))
	}
	return median(ns)
}

// timeBatched is timeEach for calls too short to time singly: each of
// samples readings times per calls and divides.
func timeBatched(samples, per int, fn func(i int)) float64 {
	return timeEach(samples, func(s int) {
		for i := 0; i < per; i++ {
			fn(s*per + i)
		}
	}) / float64(per)
}

type drillInputs struct {
	params block.Params
	keys   []identity.KeyPair
	ring   *identity.Ring
	chain  []*block.Block // owner keys[0], seq 0..drillChain-1
	tries  float64        // mean PoW tries per seal over chain
	sealNs float64
}

func buildDrillInputs(seed int64) (*drillInputs, error) {
	in := &drillInputs{params: block.DefaultParams()}
	for id := 0; id <= drillDegree; id++ {
		in.keys = append(in.keys, identity.Deterministic(identity.NodeID(id), seed))
	}
	var err error
	if in.ring, err = identity.RingFor(in.keys); err != nil {
		return nil, err
	}
	rng := rngFor(seed, "drills")
	body := make([]byte, bodyBytes)
	refs := make([]block.DigestRef, drillDegree+1)
	seal := make([]float64, 0, drillChain)
	for seq := 0; seq < drillChain; seq++ {
		rng.Read(body)
		refs[0] = block.DigestRef{Node: in.keys[0].ID}
		if seq > 0 {
			refs[0].Digest = in.chain[seq-1].Header.Hash()
		}
		for j := 1; j <= drillDegree; j++ {
			var d digest.Digest
			rng.Read(d[:])
			refs[j] = block.DigestRef{Node: in.keys[j].ID, Digest: d}
		}
		t0 := time.Now()
		b, err := in.params.Build(in.keys[0], uint32(seq), uint32(seq), body, refs)
		seal = append(seal, float64(time.Since(t0)))
		if err != nil {
			return nil, err
		}
		in.tries += float64(b.Header.Nonce) + 1
		in.chain = append(in.chain, b)
	}
	in.tries /= drillChain
	in.sealNs = median(seal)
	return in, nil
}

// runDrills returns the drill metrics by name. dir is an empty scratch
// directory on the filesystem the durable workloads write to.
func runDrills(seed int64, dir string) (map[string]float64, error) {
	in, err := buildDrillInputs(seed)
	if err != nil {
		return nil, err
	}
	m := map[string]float64{
		"block.seal_us":            in.sealNs / 1e3,
		"block.pow_tries_per_seal": in.tries,
	}
	var fail error
	check := func(err error) {
		if err != nil && fail == nil {
			fail = err
		}
	}
	n := len(in.chain)
	at := func(i int) *block.Block { return in.chain[i%n] }

	// block
	m["block.verify_us"] = timeEach(n, func(i int) {
		check(in.params.ValidateHeader(&at(i).Header, in.ring))
	}) / 1e3
	m["block.body_root_us"] = timeBatched(50, 20, func(i int) {
		_, err := in.params.BodyRoot(at(i).Body)
		check(err)
	}) / 1e3
	encoded := make([][]byte, n)
	for i, b := range in.chain {
		encoded[i] = block.Encode(b)
	}
	m["block.encode_ns"] = timeBatched(50, 100, func(i int) { _ = block.Encode(at(i)) })
	m["block.decode_ns"] = timeBatched(50, 100, func(i int) {
		_, err := block.Decode(encoded[i%n])
		check(err)
	})

	// wire: the three frames that carry the protocol's bytes.
	req := wire.NewReqChild(1, 0, at(0).Header.Hash(), 7, 7)
	get := wire.NewGetBlock(1, 0, at(1).Header.Ref(), 8, 8)
	frames := map[string]*wire.Message{
		"digest_announce": wire.NewDigestAnnounce(0, 1, at(0).Header.Hash(), 9),
		"rpy_child":       wire.NewRpyChild(req, &at(1).Header),
		"block_resp":      wire.NewBlockResp(get, at(1)),
	}
	for name, msg := range frames {
		buf := make([]byte, 0, msg.WireSize())
		enc := msg.AppendEncode(nil)
		m["wire.bytes."+name] = float64(msg.WireSize())
		m["wire.encode_ns."+name] = timeBatched(50, 200, func(int) { buf = msg.AppendEncode(buf[:0]) })
		m["wire.decode_ns."+name] = timeBatched(50, 200, func(int) {
			_, err := wire.Decode(enc)
			check(err)
		})
	}

	// transport: a request/echo round trip between two endpoints.
	ping := frames["digest_announce"]
	fabric := transport.NewNetwork()
	a, err := fabric.Endpoint(0)
	check(err)
	b, err := fabric.Endpoint(1)
	check(err)
	if fail != nil {
		return nil, fail
	}
	rtt, err := roundTrips(a, b, ping, 2000)
	check(err)
	m["transport.mem_rtt_us"] = rtt / 1e3
	check(fabric.Close())

	var connect []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		ta, err := transport.ListenTCP(0, "127.0.0.1:0", nil)
		check(err)
		tb, err := transport.ListenTCP(1, "127.0.0.1:0", nil)
		check(err)
		if fail != nil {
			return nil, fail
		}
		ta.SetPeer(1, tb.Addr())
		tb.SetPeer(0, ta.Addr())
		_, err = roundTrips(ta, tb, ping, 1) // dials both directions
		check(err)
		connect = append(connect, float64(time.Since(t0)))
		if i == 0 {
			rtt, err := roundTrips(ta, tb, ping, 2000)
			check(err)
			m["transport.tcp_rtt_us"] = rtt / 1e3
		}
		check(ta.Close())
		check(tb.Close())
	}
	m["transport.tcp_connect_ms"] = median(connect) / 1e6

	// core: one neighbour's announcement landing in A_i.
	topo, err := twoldag.SmallWorld(twoldag.SmallWorldConfig{Nodes: 32, K: 4, Beta: 0.1, Seed: seed})
	if err != nil {
		return nil, err
	}
	self := topo.Nodes()[0]
	nb := topo.Neighbors(self)[0]
	eng, err := core.NewEngine(identity.Deterministic(self, seed), in.params, topo)
	if err != nil {
		return nil, err
	}
	ds := []digest.Digest{at(0).Header.Hash()}
	m["core.on_digest_batch_us"] = timeBatched(50, 200, func(i int) {
		ds[0] = at(i).Header.Hash()
		check(eng.OnDigestsFrom(nb, ds))
	}) / 1e3

	// ledger: H_i lookups, then the WAL written, folded and read back.
	trust := ledger.NewTrustStore()
	for _, b := range in.chain {
		trust.Add(&b.Header)
	}
	m["ledger.trust_childof_ns"] = timeBatched(50, 200, func(i int) {
		// Every block but the last has its successor in the store.
		if _, ok := trust.ChildOf(at(i % (n - 1)).Header.Hash()); !ok {
			check(fmt.Errorf("trust drill: no child of block %d", i%(n-1)))
		}
	})

	owner := in.keys[0].ID
	recoverOpts := ledger.RecoverOptions{Owner: owner, Params: in.params, Ring: in.ring}
	live := filepath.Join(dir, "live")
	fb, err := ledger.OpenFileBackend(live)
	if err != nil {
		return nil, err
	}
	defer fb.Close()
	if _, err := fb.Recover(recoverOpts); err != nil {
		return nil, err
	}
	shadow := ledger.NewNodeState(owner, 0) // what Compact folds: the chain, unjournaled
	for _, b := range in.chain[:drillSnapshot] {
		check(shadow.Store.Append(b))
	}
	logBlock := func(i int) { check(fb.LogBlock(in.chain[i])) }
	m["ledger.log_block_us"] = timeEach(drillSnapshot, logBlock) / 1e3
	t0 := time.Now()
	check(fb.Compact(func() (*ledger.NodeState, error) { return shadow, nil }))
	m["ledger.compact_ms"] = float64(time.Since(t0)) / 1e6
	for i := drillSnapshot; i < n; i++ {
		logBlock(i)
	}
	check(fb.Close())
	if fail != nil {
		return nil, fail
	}
	var recoverNs []float64
	for i := 0; i < 5; i++ {
		// Recover rewrites the directory it reads, so each reading
		// takes a pristine copy.
		cp := filepath.Join(dir, fmt.Sprintf("copy-%d", i))
		if err := copyDir(live, cp); err != nil {
			return nil, err
		}
		t0 := time.Now()
		rb, err := ledger.OpenFileBackend(cp)
		if err != nil {
			return nil, err
		}
		st, err := rb.Recover(recoverOpts)
		recoverNs = append(recoverNs, float64(time.Since(t0)))
		check(err)
		if err == nil && st.Store.Len() != n {
			check(fmt.Errorf("recover drill: %d blocks back, want %d", st.Store.Len(), n))
		}
		check(rb.Close())
	}
	m["ledger.recover_us_per_block"] = median(recoverNs) / 1e3 / float64(n)
	return m, fail
}

// roundTrips sends msg from a to b and back n times and returns the
// median round trip in ns.
func roundTrips(a, b transport.Transport, msg *wire.Message, n int) (float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	echoed := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			select {
			case env, ok := <-b.Inbox():
				if !ok {
					echoed <- transport.ErrClosed
					return
				}
				if err := b.Send(ctx, a.Self(), env.Msg); err != nil {
					echoed <- err
					return
				}
			case <-ctx.Done():
				echoed <- ctx.Err()
				return
			}
		}
		echoed <- nil
	}()
	var first error
	rtt := timeEach(n, func(int) {
		if err := a.Send(ctx, b.Self(), msg); err != nil && first == nil {
			first = err
		}
		select {
		case <-a.Inbox():
		case <-ctx.Done():
		}
	})
	if err := <-echoed; err != nil && first == nil {
		first = err
	}
	return rtt, first
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
