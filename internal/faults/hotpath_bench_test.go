package faults_test

import (
	"context"
	"encoding/binary"
	"testing"
	"time"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/events"
	"github.com/twoldag/twoldag/internal/faults"
	"github.com/twoldag/twoldag/internal/identity"
	"github.com/twoldag/twoldag/internal/node"
	"github.com/twoldag/twoldag/internal/topology/topologytest"
	"github.com/twoldag/twoldag/internal/transport"
)

// batchAck signals every receiver-side batch ingest.
type batchAck struct {
	events.Nop
	ch chan struct{}
}

func (a *batchAck) OnDigestBatchDelivered(events.DigestBatchDelivered) {
	a.ch <- struct{}{}
}

// BenchmarkHotpathFaultFree measures the live announcement round trip
// in the fault-free configuration every deployment runs by default: no
// fault plan (the transport stays unwrapped — WithFaults' zero plan
// adds no layer), a zero retry policy, and the health tracker attached.
// One op is an 8-digest AnnounceBatch from a node to its neighbor,
// awaited until the receiver ingests the batch into A_i — the path the
// idempotent-receive dedup and health bookkeeping sit on, so this is
// the number that proves the robustness substrate costs nothing when
// nothing fails.
func BenchmarkHotpathFaultFree(b *testing.B) {
	g := topologytest.PaperFig6() // chain 0-1-2: node 0 announces to its one neighbor
	params := block.DefaultParams()
	kp0 := identity.Deterministic(0, 700)
	kp1 := identity.Deterministic(1, 700)
	ring, err := identity.RingFor([]identity.KeyPair{kp0, kp1})
	if err != nil {
		b.Fatal(err)
	}
	netw := transport.NewNetwork()
	defer netw.Close()
	ep0, _ := netw.Endpoint(0)
	ep1, _ := netw.Endpoint(1)
	ack := &batchAck{ch: make(chan struct{}, 1)}
	sender, err := node.New(node.Config{
		Key: kp0, Params: params, Topo: g, Ring: ring, Transport: ep0,
		Health: faults.NewHealth(0, nil),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer sender.Close()
	receiver, err := node.New(node.Config{
		Key: kp1, Params: params, Topo: g, Ring: ring, Transport: ep1,
		Health:   faults.NewHealth(1, nil),
		Observer: ack,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer receiver.Close()

	ctx := context.Background()
	ds := make([]digest.Digest, 8)
	var ctr [8]byte
	seq := uint64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range ds {
			seq++
			binary.LittleEndian.PutUint64(ctr[:], seq)
			ds[j] = digest.Sum(ctr[:])
		}
		sender.AnnounceBatch(ctx, ds)
		select {
		case <-ack.ch:
		case <-time.After(5 * time.Second):
			b.Fatal("batch never ingested")
		}
	}
}
