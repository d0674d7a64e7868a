package node

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/events"
	"github.com/twoldag/twoldag/internal/identity"
	"github.com/twoldag/twoldag/internal/topology/topologytest"
	"github.com/twoldag/twoldag/internal/transport"
	"github.com/twoldag/twoldag/internal/wire"
)

// batchRecorder captures receiver-side batch deliveries (copying the
// shared slices, as the event contract requires) and signals each one
// so tests can wait event-driven instead of polling caches.
type batchRecorder struct {
	events.Nop
	mu      sync.Mutex
	batches map[identity.NodeID][][]digest.Digest // by receiver
	ch      chan identity.NodeID
}

func newBatchRecorder() *batchRecorder {
	return &batchRecorder{ch: make(chan identity.NodeID, 64)}
}

func (r *batchRecorder) OnDigestBatchDelivered(e events.DigestBatchDelivered) {
	r.mu.Lock()
	if r.batches == nil {
		r.batches = make(map[identity.NodeID][][]digest.Digest)
	}
	r.batches[e.To] = append(r.batches[e.To], append([]digest.Digest(nil), e.Digests...))
	r.mu.Unlock()
	r.ch <- e.To
}

// TestAnnounceBatchCoalesces seals a run of blocks on one node and
// flushes them with AnnounceBatch: every neighbor must receive one
// DigestBatch frame carrying all digests in seal order, and its A_i
// must end on the newest digest.
func TestAnnounceBatchCoalesces(t *testing.T) {
	g := topologytest.PaperFig6() // A-B-C chain
	params := block.DefaultParams()
	params.Difficulty = 2
	var pairs []identity.KeyPair
	for _, id := range g.Nodes() {
		pairs = append(pairs, identity.Deterministic(id, 500))
	}
	ring, err := identity.RingFor(pairs)
	if err != nil {
		t.Fatal(err)
	}
	netw := transport.NewNetwork()
	defer netw.Close()
	rec := newBatchRecorder()
	nodes := make(map[identity.NodeID]*Node)
	for _, kp := range pairs {
		ep, err := netw.Endpoint(kp.ID)
		if err != nil {
			t.Fatal(err)
		}
		n, err := New(Config{
			Key: kp, Params: params, Topo: g, Ring: ring, Transport: ep,
			Gamma: 1, Observer: rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		nodes[kp.ID] = n
	}

	// B (node 1) seals three blocks, then flushes once.
	origin := identity.NodeID(1)
	var ds []digest.Digest
	for i := 0; i < 3; i++ {
		_, d, err := sealAndPublish(nodes[origin], []byte(fmt.Sprintf("body %d", i)))
		if err != nil {
			t.Fatal(err)
		}
		ds = append(ds, d)
	}
	nodes[origin].AnnounceBatch(context.Background(), ds)

	// Event-driven wait: one DigestBatchDelivered per neighbor. The
	// event fires after the batch entered A_i, so by the time both
	// arrive the caches are already final.
	for pending := len(g.Neighbors(origin)); pending > 0; pending-- {
		select {
		case <-rec.ch:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d neighbors ingested the batch", len(g.Neighbors(origin))-pending, len(g.Neighbors(origin)))
		}
	}
	newest := ds[len(ds)-1]
	for _, nb := range g.Neighbors(origin) {
		if got, ok := nodes[nb].Engine().Cache().Get(origin); !ok || got != newest {
			t.Fatalf("receiver %v cache did not end on the newest digest", nb)
		}
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for _, nb := range g.Neighbors(origin) {
		got := rec.batches[nb]
		if len(got) != 1 {
			t.Fatalf("receiver %v saw %d batch deliveries, want 1 coalesced frame", nb, len(got))
		}
		if len(got[0]) != len(ds) {
			t.Fatalf("receiver %v batch carried %d digests, want %d", nb, len(got[0]), len(ds))
		}
		for i := range ds {
			if got[0][i] != ds[i] {
				t.Fatalf("receiver %v digest %d out of seal order", nb, i)
			}
		}
	}
}

// TestDigestBatchFrameIngestedWhole sends one 50-digest frame from a
// bare neighbor endpoint: A_i ends on the frame's last digest, one
// DigestBatchDelivered event carries every digest in order, and the
// DigestAck echoes every digest, though the decode consumed the frame's
// payload copy.
func TestDigestBatchFrameIngestedWhole(t *testing.T) {
	rec := newBatchRecorder()
	b, eps := ackingNode(t, 1, rec)
	var run []digest.Digest
	for i := 0; i < 50; i++ {
		run = append(run, digest.Sum([]byte{byte(i)}))
	}
	if err := eps[0].Send(context.Background(), 1, wire.NewDigestBatch(0, 1, run, 1)); err != nil {
		t.Fatal(err)
	}
	// The ack goes out after the delivery event, on the same dispatch.
	ack := nextFrame(t, eps[0])
	if ack.Kind != wire.KindDigestAck {
		t.Fatalf("A got a %v, want a DigestAck", ack.Kind)
	}
	acked, err := ack.DecodeDigestAckPayload()
	if err != nil || !slices.Equal(acked, run) {
		t.Fatalf("ack names %d digests (%v), want the frame's %d in order", len(acked), err, len(run))
	}
	if got, ok := b.Engine().Cache().Get(0); !ok || got != run[len(run)-1] {
		t.Fatal("A_i did not end on the frame's last digest")
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if got := rec.batches[1]; len(got) != 1 || !slices.Equal(got[0], run) {
		t.Fatalf("%d delivery events, want one carrying the frame's %d digests in order", len(got), len(run))
	}
}
