package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/identity"
	"github.com/twoldag/twoldag/internal/wire"
)

// fabrics builds a connected pair of transports (IDs 1 and 2) on each
// fabric, so a test body runs over both.
var fabrics = []struct {
	name string
	pair func(t *testing.T) (a, b Transport)
}{
	{"mem", func(t *testing.T) (Transport, Transport) {
		n := NewNetwork()
		t.Cleanup(func() { _ = n.Close() })
		a, err := n.Endpoint(1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := n.Endpoint(2)
		if err != nil {
			t.Fatal(err)
		}
		return a, b
	}},
	{"tcp", func(t *testing.T) (Transport, Transport) {
		a, err := ListenTCP(1, "127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ListenTCP(2, "127.0.0.1:0", nil)
		if err != nil {
			_ = a.Close()
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = a.Close(); _ = b.Close() })
		a.SetPeer(2, b.Addr())
		b.SetPeer(1, a.Addr())
		return a, b
	}},
}

// echoReply answers req the way a responder would, echoing the request
// digest so the caller can tell whose reply it was handed.
func echoReply(req *wire.Message) *wire.Message {
	m := wire.NewNotFound(req)
	m.Digest = req.Digest
	return m
}

// callTag is the per-call digest: who called and which of its calls.
func callTag(worker, i int) digest.Digest {
	var raw [16]byte
	binary.LittleEndian.PutUint64(raw[:], uint64(worker))
	binary.LittleEndian.PutUint64(raw[8:], uint64(i))
	return digest.Sum(raw[:])
}

// TestRPCRepliesNeverCross is the recycled-channel hazard test:
// concurrent callers issue calls whose replies come back at once,
// twice, after the caller's timeout, or never, while forged responses
// with correlation IDs nobody issued arrive in between. Reply channels
// and timers are reused across all of it, and no call may ever be
// handed a reply to another call, nor stay blocked.
func TestRPCRepliesNeverCross(t *testing.T) {
	const (
		workers = 8
		calls   = 40
		timeout = 60 * time.Millisecond
	)
	for _, fab := range fabrics {
		t.Run(fab.name, func(t *testing.T) {
			a, b := fab.pair(t)
			ctx := context.Background()
			var late sync.WaitGroup
			var responder *RPC
			responder = NewRPC(b, func(env Envelope) {
				req := env.Msg
				// The first digest byte picks the responder's behaviour.
				switch req.Digest[0] % 5 {
				case 0: // prompt
					_ = responder.Reply(ctx, env.From, echoReply(req))
				case 1: // duplicated
					_ = responder.Reply(ctx, env.From, echoReply(req))
					_ = responder.Reply(ctx, env.From, echoReply(req))
				case 2: // late: after the caller gave up and moved on
					late.Add(1)
					time.AfterFunc(2*timeout, func() {
						defer late.Done()
						_ = responder.Reply(ctx, env.From, echoReply(req))
					})
				case 3: // silent
				case 4: // prompt, after a response nobody asked for
					forged := echoReply(req)
					forged.Corr += 1 << 40
					_ = responder.Reply(ctx, env.From, forged)
					_ = responder.Reply(ctx, env.From, echoReply(req))
				}
			}, time.Second)
			caller := NewRPC(a, func(env Envelope) {
				t.Errorf("caller's handler saw %v corr=%d", env.Msg.Kind, env.Msg.Corr)
			}, timeout)

			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < calls; i++ {
						tag := callTag(w, i)
						var issued uint64
						resp, err := caller.Call(ctx, 2, func(corr, nonce uint64) *wire.Message {
							issued = corr
							return wire.NewReqChild(1, 2, tag, corr, nonce)
						})
						switch tag[0] % 5 {
						case 2, 3:
							if !errors.Is(err, ErrRPCTimeout) {
								t.Errorf("call %d/%d: want timeout, got %v (resp %v)", w, i, err, resp)
							}
						default:
							if err != nil {
								t.Errorf("call %d/%d: %v", w, i, err)
							} else if resp.Corr != issued || resp.Digest != tag {
								t.Errorf("call %d/%d (corr %d) was handed the reply to corr %d", w, i, issued, resp.Corr)
							}
						}
					}
				}(w)
			}
			wg.Wait()
			late.Wait()
			if err := responder.Close(); err != nil {
				t.Fatal(err)
			}
			if err := caller.Close(); err != nil {
				t.Fatal(err)
			}
			caller.mu.Lock()
			left := len(caller.pending)
			caller.mu.Unlock()
			if left != 0 {
				t.Fatalf("%d calls still pending after every Call returned", left)
			}
		})
	}
}

// TestRPCCloseMidCall: closing the RPC fails every call in flight
// instead of leaving it to its timeout, and later calls fail at once.
func TestRPCCloseMidCall(t *testing.T) {
	for _, fab := range fabrics {
		t.Run(fab.name, func(t *testing.T) {
			a, b := fab.pair(t)
			got := make(chan struct{}, 16)
			silent := NewRPC(b, func(Envelope) { got <- struct{}{} }, time.Second)
			defer silent.Close()
			caller := NewRPC(a, nil, time.Minute)

			const inFlight = 6
			errs := make(chan error, inFlight)
			for i := 0; i < inFlight; i++ {
				go func(i int) {
					_, err := caller.Call(context.Background(), 2, func(corr, nonce uint64) *wire.Message {
						return wire.NewReqChild(1, 2, callTag(0, i), corr, nonce)
					})
					errs <- err
				}(i)
			}
			for i := 0; i < inFlight; i++ {
				<-got // every request arrived, so every call is waiting
			}
			if err := caller.Close(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < inFlight; i++ {
				select {
				case err := <-errs:
					if !errors.Is(err, ErrClosed) {
						t.Fatalf("call failed with %v, want ErrClosed", err)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("a call stayed blocked after Close")
				}
			}
			_, err := caller.Call(context.Background(), 2, func(corr, nonce uint64) *wire.Message {
				return wire.NewReqChild(1, 2, callTag(1, 0), corr, nonce)
			})
			if err == nil {
				t.Fatal("Call on a closed RPC succeeded")
			}
		})
	}
}

// TestResponsesReachInboxWithoutRPC: a transport nobody attached an RPC
// to queues response frames like any other — what a raw Endpoint or
// TCPNode user (tests, the benchmark's transport drill) reads.
func TestResponsesReachInboxWithoutRPC(t *testing.T) {
	for _, fab := range fabrics {
		t.Run(fab.name, func(t *testing.T) {
			a, b := fab.pair(t)
			req := wire.NewReqChild(2, 1, digest.Sum([]byte("t")), 7, 9)
			if err := a.Send(context.Background(), 2, wire.NewNotFound(req)); err != nil {
				t.Fatal(err)
			}
			select {
			case env := <-b.Inbox():
				if env.Msg.Kind != wire.KindNotFound || env.Msg.Corr != 7 {
					t.Fatalf("inbox got %v corr=%d", env.Msg.Kind, env.Msg.Corr)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("response never reached the inbox of a transport without an RPC")
			}
		})
	}
}

// TestRPCResponseBypassesFullInbox: with the handler stuck and the
// inbox full to the last slot, a call still completes — its response
// is handed over on the delivering goroutine, not queued behind the
// announcements. Uncorrelated response kinds (a PeerList push) still
// queue and are shed.
func TestRPCResponseBypassesFullInbox(t *testing.T) {
	n := NewNetwork()
	defer n.Close()
	a, _ := n.Endpoint(1)
	b, _ := n.Endpoint(2)
	ctx := context.Background()

	var responder *RPC
	responder = NewRPC(b, func(env Envelope) {
		if env.Msg.Kind == wire.KindReqChild {
			_ = responder.Reply(ctx, env.From, echoReply(env.Msg))
		}
	}, time.Second)
	defer responder.Close()

	release := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	caller := NewRPC(a, func(Envelope) {
		once.Do(func() { close(entered) })
		<-release
	}, 5*time.Second)
	defer caller.Close()
	defer close(release)

	// One frame parks the handler, inboxCapacity more fill the queue.
	if err := b.Send(ctx, 1, announce(2, 1, "park")); err != nil {
		t.Fatal(err)
	}
	<-entered
	for i := 0; i < inboxCapacity; i++ {
		if err := b.Send(ctx, 1, announce(2, 1, "fill")); err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
	}
	if err := b.Send(ctx, 1, wire.NewPeerListPush(2, 1, nil, 1)); !errors.Is(err, ErrBackpressure) {
		t.Fatalf("uncorrelated push into a full inbox: %v, want ErrBackpressure", err)
	}
	tag := callTag(9, 9)
	resp, err := caller.Call(ctx, 2, func(corr, nonce uint64) *wire.Message {
		return wire.NewReqChild(1, 2, tag, corr, nonce)
	})
	if err != nil {
		t.Fatalf("Call behind a full inbox: %v", err)
	}
	if resp.Digest != tag {
		t.Fatal("wrong reply")
	}
}

// TestRPCUnknownCorrIsDropped: a response whose correlation ID matches
// no pending call reaches neither a call nor the handler.
func TestRPCUnknownCorrIsDropped(t *testing.T) {
	for _, fab := range fabrics {
		t.Run(fab.name, func(t *testing.T) {
			a, b := fab.pair(t)
			seen := make(chan *wire.Message, 4)
			r := NewRPC(b, func(env Envelope) { seen <- env.Msg }, time.Second)
			defer r.Close()
			ctx := context.Background()
			forged := wire.NewNotFound(wire.NewReqChild(2, 1, digest.Sum([]byte("t")), 4242, 1))
			if err := a.Send(ctx, 2, forged); err != nil {
				t.Fatal(err)
			}
			// Frames of one link arrive in order: once the sentinel is
			// handled, the forged response has been dealt with.
			if err := a.Send(ctx, 2, announce(1, 2, "sentinel")); err != nil {
				t.Fatal(err)
			}
			select {
			case m := <-seen:
				if m.Kind != wire.KindDigestAnnounce {
					t.Fatalf("handler saw %v corr=%d", m.Kind, m.Corr)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("sentinel never handled")
			}
			r.mu.Lock()
			left := len(r.pending)
			r.mu.Unlock()
			if left != 0 {
				t.Fatalf("forged response left %d pending entries", left)
			}
		})
	}
}

// TestTCPSelfCallCompletes: a node's request to itself short-circuits
// the socket in both directions, and the reply must still find its
// call (PoP does this when the validator owns the audited block).
func TestTCPSelfCallCompletes(t *testing.T) {
	tn, err := ListenTCP(identity.NodeID(1), "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var r *RPC
	r = NewRPC(tn, func(env Envelope) {
		_ = r.Reply(ctx, env.From, echoReply(env.Msg))
	}, time.Second)
	defer r.Close()
	tag := callTag(3, 3)
	resp, err := r.Call(ctx, 1, func(corr, nonce uint64) *wire.Message {
		return wire.NewReqChild(1, 1, tag, corr, nonce)
	})
	if err != nil || resp.Digest != tag {
		t.Fatalf("self call: %v", err)
	}
}
