package transport

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/identity"
	"github.com/twoldag/twoldag/internal/wire"
)

func announce(from, to identity.NodeID, tag string) *wire.Message {
	return wire.NewDigestAnnounce(from, to, digest.Sum([]byte(tag)), 1)
}

func TestInmemDelivery(t *testing.T) {
	n := NewNetwork()
	defer n.Close()
	a, err := n.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Endpoint(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send(context.Background(), 2, announce(1, 2, "x")); err != nil {
		t.Fatal(err)
	}
	env := <-b.Inbox()
	if env.From != 1 || env.Msg.Kind != wire.KindDigestAnnounce {
		t.Fatalf("wrong envelope: %+v", env)
	}
}

func TestInmemDuplicateEndpoint(t *testing.T) {
	n := NewNetwork()
	defer n.Close()
	if _, err := n.Endpoint(1); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Endpoint(1); !errors.Is(err, ErrDuplicatePeer) {
		t.Fatalf("want ErrDuplicatePeer, got %v", err)
	}
}

func TestInmemUnknownPeer(t *testing.T) {
	n := NewNetwork()
	defer n.Close()
	a, _ := n.Endpoint(1)
	if err := a.Send(context.Background(), 9, announce(1, 9, "x")); !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("want ErrUnknownPeer, got %v", err)
	}
}

func TestInmemDropRule(t *testing.T) {
	n := NewNetwork()
	defer n.Close()
	a, _ := n.Endpoint(1)
	b, _ := n.Endpoint(2)
	n.SetDrop(func(from, to identity.NodeID, m *wire.Message) bool { return to == 2 })
	if err := a.Send(context.Background(), 2, announce(1, 2, "x")); err != nil {
		t.Fatalf("dropped send must not error: %v", err)
	}
	select {
	case env := <-b.Inbox():
		t.Fatalf("dropped message delivered: %+v", env)
	case <-time.After(30 * time.Millisecond):
	}
}

func TestInmemLatency(t *testing.T) {
	n := NewNetwork()
	defer n.Close()
	a, _ := n.Endpoint(1)
	b, _ := n.Endpoint(2)
	n.SetLatency(func(from, to identity.NodeID) time.Duration { return 40 * time.Millisecond })
	start := time.Now()
	if err := a.Send(context.Background(), 2, announce(1, 2, "x")); err != nil {
		t.Fatal(err)
	}
	<-b.Inbox()
	if elapsed := time.Since(start); elapsed < 35*time.Millisecond {
		t.Fatalf("latency not applied: %v", elapsed)
	}
}

func TestInmemMessageIsolation(t *testing.T) {
	// Receiver must not share memory with the sender's message.
	n := NewNetwork()
	defer n.Close()
	a, _ := n.Endpoint(1)
	b, _ := n.Endpoint(2)
	msg := announce(1, 2, "x")
	if err := a.Send(context.Background(), 2, msg); err != nil {
		t.Fatal(err)
	}
	msg.Digest[0] ^= 0xFF
	env := <-b.Inbox()
	if env.Msg.Digest == msg.Digest {
		t.Fatal("message memory shared across the fabric")
	}
}

func TestInmemRemoveAndClosed(t *testing.T) {
	n := NewNetwork()
	a, _ := n.Endpoint(1)
	if _, err := n.Endpoint(2); err != nil {
		t.Fatal(err)
	}
	if err := n.Remove(2); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(context.Background(), 2, announce(1, 2, "x")); !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("want ErrUnknownPeer after removal, got %v", err)
	}
	if err := n.Remove(2); !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("double remove: %v", err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(context.Background(), 1, announce(1, 1, "x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	if _, err := n.Endpoint(3); !errors.Is(err, ErrClosed) {
		t.Fatalf("endpoint on closed network: %v", err)
	}
}

func TestInmemBackpressureDrops(t *testing.T) {
	n := NewNetwork()
	defer n.Close()
	a, _ := n.Endpoint(1)
	if _, err := n.Endpoint(2); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var lastErr error
	for i := 0; i < inboxCapacity+10; i++ {
		if err := a.Send(ctx, 2, announce(1, 2, "x")); err != nil {
			lastErr = err
		}
	}
	if !errors.Is(lastErr, ErrBackpressure) {
		t.Fatalf("want ErrBackpressure on overflow, got %v", lastErr)
	}
}

func TestRPCRoundTrip(t *testing.T) {
	n := NewNetwork()
	defer n.Close()
	a, _ := n.Endpoint(1)
	b, _ := n.Endpoint(2)

	// Node 2 answers every REQ_CHILD with NOT_FOUND.
	var responder *RPC
	responder = NewRPC(b, func(env Envelope) {
		_ = responder.Reply(context.Background(), env.From, wire.NewNotFound(env.Msg))
	}, time.Second)
	defer responder.Close()

	caller := NewRPC(a, nil, time.Second)
	defer caller.Close()
	resp, err := caller.Call(context.Background(), 2, func(corr, nonce uint64) *wire.Message {
		return wire.NewReqChild(1, 2, digest.Sum([]byte("t")), corr, nonce)
	})
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if resp.Kind != wire.KindNotFound {
		t.Fatalf("resp kind %v", resp.Kind)
	}
}

func TestRPCTimeout(t *testing.T) {
	n := NewNetwork()
	defer n.Close()
	a, _ := n.Endpoint(1)
	b, _ := n.Endpoint(2)
	silent := NewRPC(b, func(Envelope) {}, time.Second) // never replies
	defer silent.Close()
	caller := NewRPC(a, nil, 50*time.Millisecond)
	defer caller.Close()
	_, err := caller.Call(context.Background(), 2, func(corr, nonce uint64) *wire.Message {
		return wire.NewReqChild(1, 2, digest.Sum([]byte("t")), corr, nonce)
	})
	if !errors.Is(err, ErrRPCTimeout) {
		t.Fatalf("want ErrRPCTimeout, got %v", err)
	}
}

func TestRPCContextCancel(t *testing.T) {
	n := NewNetwork()
	defer n.Close()
	a, _ := n.Endpoint(1)
	b, _ := n.Endpoint(2)
	silent := NewRPC(b, func(Envelope) {}, time.Second)
	defer silent.Close()
	caller := NewRPC(a, nil, 10*time.Second)
	defer caller.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := caller.Call(ctx, 2, func(corr, nonce uint64) *wire.Message {
		return wire.NewReqChild(1, 2, digest.Sum([]byte("t")), corr, nonce)
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
}

func TestRPCConcurrentCalls(t *testing.T) {
	n := NewNetwork()
	defer n.Close()
	a, _ := n.Endpoint(1)
	b, _ := n.Endpoint(2)
	var responder *RPC
	responder = NewRPC(b, func(env Envelope) {
		_ = responder.Reply(context.Background(), env.From, wire.NewNotFound(env.Msg))
	}, time.Second)
	defer responder.Close()
	caller := NewRPC(a, nil, time.Second)
	defer caller.Close()

	var wg sync.WaitGroup
	errs := make([]error, 20)
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = caller.Call(context.Background(), 2, func(corr, nonce uint64) *wire.Message {
				return wire.NewReqChild(1, 2, digest.Sum([]byte{byte(i)}), corr, nonce)
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
}

func TestTCPRoundTrip(t *testing.T) {
	a, err := ListenTCP(1, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP(2, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.SetPeer(2, b.Addr())
	b.SetPeer(1, a.Addr())

	if err := a.Send(context.Background(), 2, announce(1, 2, "hello")); err != nil {
		t.Fatal(err)
	}
	select {
	case env := <-b.Inbox():
		if env.From != 1 || env.Msg.Kind != wire.KindDigestAnnounce {
			t.Fatalf("wrong envelope: %+v", env)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("TCP delivery timed out")
	}
}

func TestTCPRPC(t *testing.T) {
	a, err := ListenTCP(1, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ListenTCP(2, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	a.SetPeer(2, b.Addr())
	b.SetPeer(1, a.Addr())

	var responder *RPC
	responder = NewRPC(b, func(env Envelope) {
		_ = responder.Reply(context.Background(), env.From, wire.NewNotFound(env.Msg))
	}, time.Second)
	defer responder.Close()
	caller := NewRPC(a, nil, 2*time.Second)
	defer caller.Close()

	resp, err := caller.Call(context.Background(), 2, func(corr, nonce uint64) *wire.Message {
		return wire.NewReqChild(1, 2, digest.Sum([]byte("t")), corr, nonce)
	})
	if err != nil {
		t.Fatalf("Call over TCP: %v", err)
	}
	if resp.Kind != wire.KindNotFound {
		t.Fatalf("resp kind %v", resp.Kind)
	}
}

func TestTCPUnknownPeer(t *testing.T) {
	a, err := ListenTCP(1, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Send(context.Background(), 5, announce(1, 5, "x")); !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("want ErrUnknownPeer, got %v", err)
	}
}

func TestTCPCloseIdempotent(t *testing.T) {
	a, err := ListenTCP(1, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := a.Send(context.Background(), 2, announce(1, 2, "x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}

func TestTCPDialDeadPeer(t *testing.T) {
	// A directory entry pointing at a dead listener must fail the dial
	// with the typed transient error, not hang or panic.
	dead, err := ListenTCP(2, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	addr := dead.Addr()
	if err := dead.Close(); err != nil {
		t.Fatal(err)
	}
	a, err := ListenTCP(1, "127.0.0.1:0", map[identity.NodeID]string{2: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	err = a.Send(context.Background(), 2, announce(1, 2, "x"))
	if !errors.Is(err, ErrPeerUnreachable) {
		t.Fatalf("want ErrPeerUnreachable dialing dead peer, got %v", err)
	}
}

func TestTCPMidStreamReset(t *testing.T) {
	// A peer dying after the connection is established must surface as
	// ErrPeerUnreachable on a subsequent write — possibly after one
	// buffered write that the kernel accepts before the RST lands.
	a, err := ListenTCP(1, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP(2, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	a.SetPeer(2, b.Addr())
	if err := a.Send(context.Background(), 2, announce(1, 2, "warm")); err != nil {
		t.Fatalf("warm-up send: %v", err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := a.Send(context.Background(), 2, announce(1, 2, "x"))
		if errors.Is(err, ErrPeerUnreachable) {
			return
		}
		if err != nil {
			t.Fatalf("want ErrPeerUnreachable after reset, got %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("writes to a dead peer kept succeeding")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestTCPInboundDropHandler(t *testing.T) {
	// Receiver-side backpressure is invisible to a TCP sender; the drop
	// handler must surface each frame lost to a full inbox.
	a, err := ListenTCP(1, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP(2, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.SetPeer(2, b.Addr())
	dropped := make(chan Envelope, 1)
	b.SetDropHandler(func(env Envelope) {
		select {
		case dropped <- env:
		default:
		}
	})
	// Nobody drains b's inbox, so sends past its capacity must invoke
	// the handler.
	ctx := context.Background()
	for i := 0; i < inboxCapacity+16; i++ {
		if err := a.Send(ctx, 2, announce(1, 2, "flood")); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	select {
	case env := <-dropped:
		if env.From != 1 {
			t.Fatalf("dropped envelope from %v, want 1", env.From)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no inbound drop reported")
	}
}

func TestTCPSetPeerRedirects(t *testing.T) {
	a, err := ListenTCP(1, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b1, err := ListenTCP(2, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b1.Close()
	b2, err := ListenTCP(2, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()

	ctx := context.Background()
	a.SetPeer(2, b1.Addr())
	if err := a.Send(ctx, 2, announce(1, 2, "first")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-b1.Inbox():
	case <-time.After(2 * time.Second):
		t.Fatal("delivery to the first address timed out")
	}

	// Updating the address must drop the cached connection so the next
	// send dials the new listener.
	a.SetPeer(2, b2.Addr())
	if addr, ok := a.Peer(2); !ok || addr != b2.Addr() {
		t.Fatalf("Peer(2) = %q, %v", addr, ok)
	}
	if err := a.Send(ctx, 2, announce(1, 2, "second")); err != nil {
		t.Fatal(err)
	}
	select {
	case env := <-b2.Inbox():
		if env.Msg.Digest != digest.Sum([]byte("second")) {
			t.Fatal("wrong frame at the new address")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("delivery to the updated address timed out")
	}
	select {
	case env := <-b1.Inbox():
		t.Fatalf("stale address still receiving: %+v", env)
	default:
	}
}

func TestTCPRemovePeer(t *testing.T) {
	a, err := ListenTCP(1, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP(2, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	ctx := context.Background()
	a.SetPeer(2, b.Addr())
	if err := a.Send(ctx, 2, announce(1, 2, "x")); err != nil {
		t.Fatal(err)
	}
	a.RemovePeer(2)
	if err := a.Send(ctx, 2, announce(1, 2, "y")); !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("want ErrUnknownPeer after RemovePeer, got %v", err)
	}
	// Re-registering restores the route.
	a.SetPeer(2, b.Addr())
	if err := a.Send(ctx, 2, announce(1, 2, "z")); err != nil {
		t.Fatalf("send after re-register: %v", err)
	}
}

func TestTCPDirectoryUpdatesUnderConcurrentSends(t *testing.T) {
	a, err := ListenTCP(1, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b1, err := ListenTCP(2, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b1.Close()
	b2, err := ListenTCP(2, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	// Drain both inboxes so sends never hit backpressure.
	done := make(chan struct{})
	go func() {
		for range b1.Inbox() {
		}
		close(done)
	}()
	go func() {
		for range b2.Inbox() {
		}
	}()

	ctx := context.Background()
	a.SetPeer(2, b1.Addr())
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				// Sends may fail transiently when SetPeer yanks the cached
				// connection mid-write; the race detector is the assertion.
				_ = a.Send(ctx, 2, announce(1, 2, "c"))
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if i%2 == 0 {
				a.SetPeer(2, b2.Addr())
			} else {
				a.SetPeer(2, b1.Addr())
			}
		}
	}()
	wg.Wait()
	b1.Close()
	<-done
}

func TestTCPAdvertiseAddr(t *testing.T) {
	plain, err := ListenTCP(1, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if plain.AdvertiseAddr() != plain.Addr() {
		t.Fatalf("default advertise %q != bound %q", plain.AdvertiseAddr(), plain.Addr())
	}
	if unreachable, err := ListenTCP(3, "127.0.0.1:0", nil, WithAdvertiseAddr("10.9.9.9:1")); err != nil {
		t.Fatal(err)
	} else {
		got := unreachable.AdvertiseAddr()
		unreachable.Close()
		if got != "10.9.9.9:1" {
			t.Fatalf("advertise override lost: %q", got)
		}
	}

	// NAT-style rewrite: the node binds 127.0.0.1:0 but advertises a
	// hostname that resolves back to the same listener; a peer told only
	// the advertised address must still reach it.
	svc, err := ListenTCP(2, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	_, port, err := net.SplitHostPort(svc.Addr())
	if err != nil {
		t.Fatal(err)
	}
	plain.SetPeer(2, net.JoinHostPort("localhost", port))
	if err := plain.Send(context.Background(), 2, announce(1, 2, "via-advertised")); err != nil {
		t.Fatalf("send via advertised address: %v", err)
	}
	select {
	case <-svc.Inbox():
	case <-time.After(2 * time.Second):
		t.Fatal("delivery via advertised address timed out")
	}
}

func TestBootstrapExchange(t *testing.T) {
	member, err := ListenTCP(0, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer member.Close()
	entries := []wire.PeerEntry{{ID: 0, Live: true, Anchor: wire.NoAnchor, Addr: member.Addr()}}
	member.SetBootstrapHandler(func(m *wire.Message) *wire.Message {
		if m.Kind != wire.KindHello {
			return nil
		}
		return wire.NewPeerList(m, entries)
	})

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	hello := wire.NewHello(wire.BootstrapID, 0, wire.HelloInfo{Anchor: wire.NoAnchor}, 1, 1)
	reply, err := Bootstrap(ctx, member.Addr(), hello)
	if err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	got, err := reply.DecodePeerListPayload()
	if err != nil {
		t.Fatalf("reply payload: %v", err)
	}
	if len(got) != 1 || got[0].Addr != member.Addr() {
		t.Fatalf("wrong peer list: %+v", got)
	}
	// The discovery frame must never surface in the inbox.
	select {
	case env := <-member.Inbox():
		t.Fatalf("bootstrap frame leaked into the inbox: %+v", env)
	default:
	}
}

func TestBootstrapWithoutHandlerTimesOut(t *testing.T) {
	member, err := ListenTCP(0, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer member.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	hello := wire.NewHello(wire.BootstrapID, 0, wire.HelloInfo{Anchor: wire.NoAnchor}, 1, 1)
	if _, err := Bootstrap(ctx, member.Addr(), hello); err == nil {
		t.Fatal("bootstrap against a handler-less node must fail, not hang")
	}
	// The unanswered discovery frame must not surface in the inbox
	// either: BootstrapID is not a routable identity.
	select {
	case env := <-member.Inbox():
		t.Fatalf("bootstrap frame leaked into the inbox: %+v", env)
	default:
	}
}
