package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/twoldag/twoldag/internal/identity"
	"github.com/twoldag/twoldag/internal/wire"
)

// ErrRPCTimeout reports an expired request timeout τ (Algorithm 3
// line 19).
var ErrRPCTimeout = errors.New("transport: request timed out")

// DefaultRPCTimeout is the default τ.
const DefaultRPCTimeout = 2 * time.Second

// Handler consumes unsolicited (non-response) messages. The inbox
// feeds it one frame at a time; on the in-memory fabric it also serves
// correlated REQ_CHILD and GET_BLOCK frames on their senders'
// goroutines, concurrently with that and with each other, so serving
// those two kinds must be safe for concurrent use.
type Handler func(Envelope)

// RPC multiplexes request/response exchanges over a Transport. It owns
// the transport's receive side: it installs itself as the transport's
// response handler, so a response is matched to its pending call by
// correlation ID on the goroutine that delivered it, and it drains the
// inbox, passing everything else to the handler one frame at a time.
// A PoP read request the in-memory fabric delivers directly goes to
// the handler on the delivering goroutine (see the package doc). Close
// the RPC (not the transport directly) to shut down.
type RPC struct {
	tr      Transport
	handler Handler
	timeout time.Duration

	mu      sync.Mutex
	pending map[uint64]*call

	// calls recycles the reply channel and timer of completed calls.
	calls sync.Pool

	corr  atomic.Uint64
	nonce atomic.Uint64

	wg sync.WaitGroup
}

// call is the wait state of one Call: where complete delivers the reply
// and the timer that bounds the wait. A call goes back to the pool only
// after its reply was received — then the pending entry is gone, the
// one send it could ever get has been consumed and the timer is
// stopped, so nothing can reach the next user through it. A call that
// timed out, was canceled or was failed by Close may still be handed a
// late reply by a complete that already took it from the map (or holds
// a closed channel) and is left to the garbage collector.
type call struct {
	reply chan *wire.Message // buffered: complete never blocks
	timer *time.Timer
}

// NewRPC wraps a transport. handler may be nil when the node only
// issues requests. timeout 0 means DefaultRPCTimeout.
func NewRPC(tr Transport, handler Handler, timeout time.Duration) *RPC {
	if timeout <= 0 {
		timeout = DefaultRPCTimeout
	}
	r := &RPC{
		tr:      tr,
		handler: handler,
		timeout: timeout,
		pending: make(map[uint64]*call),
	}
	tr.SetResponseHandler(r.complete)
	r.wg.Add(1)
	go r.dispatch()
	return r
}

// Transport exposes the wrapped transport (for broadcasts).
func (r *RPC) Transport() Transport { return r.tr }

// NextNonce returns a fresh anti-replay nonce.
func (r *RPC) NextNonce() uint64 { return r.nonce.Add(1) }

// dispatch feeds the inbox — every frame that is not a response — to
// the handler, serially.
func (r *RPC) dispatch() {
	defer r.wg.Done()
	for env := range r.tr.Inbox() {
		if r.handler != nil {
			r.handler(env)
		}
	}
}

// complete is the transport's response handler, run on the delivering
// goroutine. A response goes to the call waiting on its correlation ID
// without blocking; one no call waits for — late, duplicated, or
// carrying a correlation ID this RPC never issued — is dropped. A PoP
// read request, which the in-memory fabric delivers here too, is
// served by the handler right away, as dispatch would have served it,
// with the frame's From as its sender.
func (r *RPC) complete(msg *wire.Message) {
	if !msg.Kind.IsResponse() {
		if r.handler != nil {
			r.handler(Envelope{From: msg.From, Msg: msg})
		}
		return
	}
	if c := r.take(msg.Corr); c != nil {
		c.reply <- msg
	}
}

// take removes and returns the pending call for corr, nil when there is
// none. Whoever takes a call owns its outcome: complete delivers the
// reply, Call gives up on it, Close fails it.
func (r *RPC) take(corr uint64) *call {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.pending[corr]
	delete(r.pending, corr)
	return c
}

// Call sends the message produced by build (which receives a fresh
// correlation ID and nonce) and waits for the matching response.
func (r *RPC) Call(ctx context.Context, to identity.NodeID, build func(corr, nonce uint64) *wire.Message) (*wire.Message, error) {
	corr := r.corr.Add(1)
	c, _ := r.calls.Get().(*call)
	if c == nil {
		c = &call{reply: make(chan *wire.Message, 1)}
	}
	r.mu.Lock()
	r.pending[corr] = c
	r.mu.Unlock()

	if err := r.tr.Send(ctx, to, build(corr, r.NextNonce())); err != nil {
		r.take(corr)
		return nil, err
	}
	if c.timer == nil {
		c.timer = time.NewTimer(r.timeout)
	} else {
		// A pooled timer is stopped, and under the module's go line
		// (>= 1.23) a stopped timer's channel is empty: Reset starts clean.
		c.timer.Reset(r.timeout)
	}
	select {
	case resp := <-c.reply:
		c.timer.Stop()
		if resp == nil {
			return nil, ErrClosed // RPC shut down mid-call
		}
		r.calls.Put(c)
		return resp, nil
	case <-c.timer.C:
		r.take(corr)
		return nil, fmt.Errorf("%w: %v after %v", ErrRPCTimeout, to, r.timeout)
	case <-ctx.Done():
		c.timer.Stop()
		r.take(corr)
		return nil, ctx.Err()
	}
}

// Close shuts down the transport and waits for the dispatch loop.
func (r *RPC) Close() error {
	err := r.tr.Close()
	r.wg.Wait()
	// Fail any still-pending calls.
	r.mu.Lock()
	for corr, c := range r.pending {
		close(c.reply)
		delete(r.pending, corr)
	}
	r.mu.Unlock()
	return err
}
