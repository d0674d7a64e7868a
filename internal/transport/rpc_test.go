package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/twoldag/twoldag/internal/block"
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
					_ = responder.Transport().Send(ctx, env.From, echoReply(req))
				case 1: // duplicated
					_ = responder.Transport().Send(ctx, env.From, echoReply(req))
					_ = responder.Transport().Send(ctx, env.From, echoReply(req))
				case 2: // late: after the caller gave up and moved on
					late.Add(1)
					time.AfterFunc(2*timeout, func() {
						defer late.Done()
						_ = responder.Transport().Send(ctx, env.From, echoReply(req))
					})
				case 3: // silent
				case 4: // prompt, after a response nobody asked for
					forged := echoReply(req)
					forged.Corr += 1 << 40
					_ = responder.Transport().Send(ctx, env.From, forged)
					_ = responder.Transport().Send(ctx, env.From, echoReply(req))
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
// TCPNode user (tests, the benchmark's transport drill) reads — and
// correlated REQ_CHILD and GET_BLOCK frames too, which the in-memory
// fabric serves directly only through a handler.
func TestResponsesReachInboxWithoutRPC(t *testing.T) {
	for _, fab := range fabrics {
		t.Run(fab.name, func(t *testing.T) {
			a, b := fab.pair(t)
			frames := []*wire.Message{
				wire.NewNotFound(wire.NewReqChild(2, 1, digest.Sum([]byte("t")), 7, 9)),
				wire.NewReqChild(1, 2, digest.Sum([]byte("t")), 8, 10),
				wire.NewGetBlock(1, 2, block.Ref{Node: 2, Seq: 3}, 9, 11),
			}
			for _, m := range frames {
				if err := a.Send(context.Background(), 2, m); err != nil {
					t.Fatal(err)
				}
			}
			for _, want := range frames {
				select {
				case env := <-b.Inbox():
					if env.Msg.Kind != want.Kind || env.Msg.Corr != want.Corr {
						t.Fatalf("inbox got %v corr=%d, want %v corr=%d", env.Msg.Kind, env.Msg.Corr, want.Kind, want.Corr)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("%v never reached the inbox of a transport without an RPC", want.Kind)
				}
			}
		})
	}
}

// TestRPCResponseBypassesFullInbox: with the handler stuck and the
// inbox full to the last slot, a call still completes — its response
// is handed over on the delivering goroutine, not queued behind the
// announcements. Uncorrelated response kinds (a NotFound with
// correlation 0) still queue and are shed.
func TestRPCResponseBypassesFullInbox(t *testing.T) {
	n := NewNetwork()
	defer n.Close()
	a, _ := n.Endpoint(1)
	b, _ := n.Endpoint(2)
	ctx := context.Background()

	var responder *RPC
	responder = NewRPC(b, func(env Envelope) {
		if env.Msg.Kind == wire.KindReqChild {
			_ = responder.Transport().Send(ctx, env.From, echoReply(env.Msg))
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
	uncorrelated := wire.NewNotFound(wire.NewReqChild(1, 2, callTag(8, 8), 0, 1))
	if err := b.Send(ctx, 1, uncorrelated); !errors.Is(err, ErrBackpressure) {
		t.Fatalf("uncorrelated response into a full inbox: %v, want ErrBackpressure", err)
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
		_ = r.Transport().Send(ctx, env.From, echoReply(env.Msg))
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

// TestRequestServedPastFullInbox: on the in-memory fabric a PoP read
// request from a Call is served on the caller's goroutine, so with the
// responder's dispatch parked and its inbox full to the last slot,
// REQ_CHILD and GET_BLOCK calls still get their answers. A request with
// correlation 0 is a push like any other: it still queues, and is
// shed.
func TestRequestServedPastFullInbox(t *testing.T) {
	n := NewNetwork()
	defer n.Close()
	a, _ := n.Endpoint(1)
	b, _ := n.Endpoint(2)
	ctx := context.Background()

	release := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	var responder *RPC
	responder = NewRPC(b, func(env Envelope) {
		switch env.Msg.Kind {
		case wire.KindReqChild, wire.KindGetBlock:
			_ = responder.Transport().Send(ctx, env.From, echoReply(env.Msg))
		default:
			once.Do(func() { close(entered) })
			<-release
		}
	}, time.Second)
	defer responder.Close()
	defer close(release)
	caller := NewRPC(a, nil, 5*time.Second)
	defer caller.Close()

	// One frame parks the responder's dispatch, inboxCapacity more fill
	// its queue.
	if err := a.Send(ctx, 2, announce(1, 2, "park")); err != nil {
		t.Fatal(err)
	}
	<-entered
	for i := 0; i < inboxCapacity; i++ {
		if err := a.Send(ctx, 2, announce(1, 2, "fill")); err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
	}
	push := wire.NewReqChild(1, 2, callTag(8, 8), 0, 1)
	if err := a.Send(ctx, 2, push); !errors.Is(err, ErrBackpressure) {
		t.Fatalf("corr-0 request into a full inbox: %v, want ErrBackpressure", err)
	}
	for i, build := range []func(tag digest.Digest, corr, nonce uint64) *wire.Message{
		func(tag digest.Digest, corr, nonce uint64) *wire.Message {
			return wire.NewReqChild(1, 2, tag, corr, nonce)
		},
		func(tag digest.Digest, corr, nonce uint64) *wire.Message {
			m := wire.NewGetBlock(1, 2, block.Ref{Node: 2, Seq: 3}, corr, nonce)
			m.Digest = tag // echoed back, like a REQ_CHILD's target
			return m
		},
	} {
		tag := callTag(9, i)
		resp, err := caller.Call(ctx, 2, func(corr, nonce uint64) *wire.Message {
			return build(tag, corr, nonce)
		})
		if err != nil {
			t.Fatalf("call %d behind a full inbox: %v", i, err)
		}
		if resp.Digest != tag {
			t.Fatalf("call %d: wrong reply", i)
		}
	}
}

// TestEndpointCloseWaitsForServes: Close of an in-memory endpoint
// returns only once the requests it is serving on their callers'
// goroutines are done, so its owner may release what they read (a
// device closes its backend after its node). A self-addressed request
// re-enters the endpoint being closed and must not deadlock there.
func TestEndpointCloseWaitsForServes(t *testing.T) {
	for _, self := range []bool{false, true} {
		name := map[bool]string{false: "peer", true: "self"}[self]
		t.Run(name, func(t *testing.T) {
			n := NewNetwork()
			defer n.Close()
			a, _ := n.Endpoint(1)
			b, _ := n.Endpoint(2)
			server, to := b, identity.NodeID(2)
			if self {
				server, to = a, 1
			}
			ctx := context.Background()
			entered, release := make(chan struct{}), make(chan struct{})
			var served atomic.Bool
			var responder *RPC
			responder = NewRPC(server, func(env Envelope) {
				if env.Msg.Kind != wire.KindReqChild {
					return
				}
				close(entered)
				<-release
				_ = responder.Transport().Send(ctx, env.From, echoReply(env.Msg))
				served.Store(true)
			}, 200*time.Millisecond)
			defer responder.Close()
			caller := responder
			if !self {
				caller = NewRPC(a, nil, 200*time.Millisecond)
				defer caller.Close()
			}
			var unpark sync.Once
			defer unpark.Do(func() { close(release) }) // before the Closes, on a failure
			called := make(chan struct{})
			go func() {
				defer close(called)
				_, _ = caller.Call(ctx, to, func(corr, nonce uint64) *wire.Message {
					return wire.NewReqChild(1, to, callTag(1, 1), corr, nonce)
				})
			}()
			<-entered
			closed := make(chan struct{})
			go func() {
				_ = server.Close()
				close(closed)
			}()
			select {
			case <-closed:
				t.Fatal("Close returned while a request was being served")
			case <-time.After(50 * time.Millisecond):
			}
			unpark.Do(func() { close(release) })
			select {
			case <-closed:
			case <-time.After(5 * time.Second):
				t.Fatal("Close never returned after the serve was released")
			}
			if !served.Load() {
				t.Fatal("Close returned before the serve finished")
			}
			if err := caller.Transport().Send(ctx, to, wire.NewReqChild(1, to, callTag(1, 2), 99, 1)); err == nil {
				t.Fatal("a request reached a closed endpoint")
			}
			select {
			case <-called:
			case <-time.After(5 * time.Second):
				t.Fatal("the call never returned")
			}
		})
	}
}
