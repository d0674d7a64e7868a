package node

import (
	"context"
	"testing"
	"time"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/events"
	"github.com/twoldag/twoldag/internal/identity"
	"github.com/twoldag/twoldag/internal/metrics"
	"github.com/twoldag/twoldag/internal/topology/topologytest"
	"github.com/twoldag/twoldag/internal/transport"
	"github.com/twoldag/twoldag/internal/wire"
)

// ackingNode starts node id of the Fig. 6 chain (A-B-C) with wire
// acknowledgements on, observed by obs; every other device of the chain
// is a bare endpoint the test drives by hand.
func ackingNode(t *testing.T, id identity.NodeID, obs events.Observer) (*Node, map[identity.NodeID]*transport.Endpoint) {
	t.Helper()
	g := topologytest.PaperFig6()
	params := block.DefaultParams()
	params.Difficulty = 2
	var pairs []identity.KeyPair
	for _, nb := range g.Nodes() {
		pairs = append(pairs, identity.Deterministic(nb, 1))
	}
	ring, err := identity.RingFor(pairs)
	if err != nil {
		t.Fatal(err)
	}
	netw := transport.NewNetwork()
	t.Cleanup(func() { _ = netw.Close() })
	eps := make(map[identity.NodeID]*transport.Endpoint)
	for _, nb := range g.Nodes() {
		ep, err := netw.Endpoint(nb)
		if err != nil {
			t.Fatal(err)
		}
		eps[nb] = ep
	}
	n, err := New(Config{
		Key: identity.Deterministic(id, 1), Params: params, Topo: g, Ring: ring,
		Transport: eps[id], Gamma: 1, Observer: obs, AnnounceAcks: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Close() })
	delete(eps, id)
	return n, eps
}

// nextFrame returns the next frame ep receives.
func nextFrame(t *testing.T, ep *transport.Endpoint) *wire.Message {
	t.Helper()
	select {
	case env := <-ep.Inbox():
		return env.Msg
	case <-time.After(5 * time.Second):
		t.Fatalf("node %v received nothing", ep.Self())
		return nil
	}
}

// TestSingletonAnnounceFrameRefused: a DigestAnnounce frame from a
// neighbor is dropped like any unknown kind — A_i keeps no entry for
// the sender, no delivery event fires and no DigestAck goes back.
func TestSingletonAnnounceFrameRefused(t *testing.T) {
	counters := &metrics.EventCounters{}
	log := newDeliveryLog()
	b, eps := ackingNode(t, 1, events.Multi(counters, log))
	ctx := context.Background()
	if err := eps[0].Send(ctx, 1, wire.NewDigestAnnounce(0, 1, digest.Sum([]byte("singleton")), 1)); err != nil {
		t.Fatal(err)
	}
	// Sentinel: a one-digest batch from B's other neighbor. FIFO inbox
	// plus serial dispatch means that once its ack reaches C, the
	// singleton frame was judged and any reply to it already sent.
	sentinel := digest.Sum([]byte("sentinel"))
	if err := eps[2].Send(ctx, 1, wire.NewDigestBatch(2, 1, []digest.Digest{sentinel}, 2)); err != nil {
		t.Fatal(err)
	}
	if ack := nextFrame(t, eps[2]); ack.Kind != wire.KindDigestAck || ack.Digest != sentinel {
		t.Fatalf("C got %v for %s, want a DigestAck for the sentinel", ack.Kind, ack.Digest)
	}
	select {
	case env := <-eps[0].Inbox():
		t.Fatalf("the singleton's sender got a %v", env.Msg.Kind)
	default:
	}
	if _, ok := b.Engine().Cache().Get(0); ok {
		t.Fatal("a singleton frame reached A_i")
	}
	if got := counters.DigestsAnnounced(); got != 1 {
		t.Fatalf("%d deliveries observed, want the sentinel's alone", got)
	}
	log.mu.Lock()
	defer log.mu.Unlock()
	if _, ok := log.seen[delivery{2, 1, sentinel}]; !ok || len(log.seen) != 1 {
		t.Fatalf("deliveries %v, want the sentinel's alone", log.seen)
	}
}

// TestDigestAckNamesItsDigests: an acknowledgement resolves only the
// digests its payload carries. One with an empty payload, or with a
// payload that is not a whole number of digests, fires no delivery
// event, whatever its Digest field names.
func TestDigestAckNamesItsDigests(t *testing.T) {
	counters := &metrics.EventCounters{}
	acks := newAckCounter()
	_, eps := ackingNode(t, 1, events.Multi(counters, acks))
	ctx := context.Background()
	named := digest.Sum([]byte("named only in the Digest field"))
	for i, payload := range [][]byte{nil, make([]byte, digest.Size+1)} {
		ack := &wire.Message{Kind: wire.KindDigestAck, From: 0, To: 1, Nonce: uint64(i + 1), Digest: named, Payload: payload}
		if err := eps[0].Send(ctx, 1, ack); err != nil {
			t.Fatal(err)
		}
	}
	sentinel := digest.Sum([]byte("sentinel"))
	ack := wire.NewDigestAck(wire.NewDigestBatch(1, 0, []digest.Digest{sentinel}, 3))
	if err := eps[0].Send(ctx, 1, ack); err != nil {
		t.Fatal(err)
	}
	acks.wait(t, 1)
	acks.mu.Lock()
	defer acks.mu.Unlock()
	if len(acks.acks) != 1 || len(acks.acks[0]) != 1 || acks.acks[0][0] != sentinel {
		t.Fatalf("delivery events %v, want the sentinel's alone", acks.acks)
	}
	if got := counters.DigestsAnnounced(); got != 1 {
		t.Fatalf("%d deliveries counted, want 1", got)
	}
}
