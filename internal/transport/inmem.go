package transport

import (
	"context"
	"fmt"
	"sync"

	"github.com/twoldag/twoldag/internal/identity"
	"github.com/twoldag/twoldag/internal/wire"
)

// inboxCapacity bounds each endpoint's receive queue. A full inbox
// drops the message (radio networks are lossy; upper layers retry).
const inboxCapacity = 256

// Network is an in-memory message fabric connecting Endpoints. It
// supports loss injection for protocol testing; delays come from the
// layer above (faults.Plan). The zero value is not usable; call
// NewNetwork.
type Network struct {
	mu     sync.RWMutex
	eps    map[identity.NodeID]*Endpoint
	drop   func(from, to identity.NodeID, m *wire.Message) bool
	closed bool
}

// NewNetwork creates an empty, lossless fabric.
func NewNetwork() *Network {
	return &Network{eps: make(map[identity.NodeID]*Endpoint)}
}

// SetDrop installs a loss function returning true to drop a message
// (nil = lossless). Partitions are expressed as drop rules.
func (n *Network) SetDrop(f func(from, to identity.NodeID, m *wire.Message) bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.drop = f
}

// Endpoint creates and registers the endpoint for a node.
func (n *Network) Endpoint(id identity.NodeID) (*Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	if _, ok := n.eps[id]; ok {
		return nil, fmt.Errorf("%w: %v", ErrDuplicatePeer, id)
	}
	ep := &Endpoint{net: n, id: id, inbox: make(chan Envelope, inboxCapacity), done: make(chan struct{})}
	n.eps[id] = ep
	return ep, nil
}

// Remove detaches and closes a node's endpoint (dynamic leave).
func (n *Network) Remove(id identity.NodeID) error {
	n.mu.Lock()
	ep, ok := n.eps[id]
	if ok {
		delete(n.eps, id)
	}
	n.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %v", ErrUnknownPeer, id)
	}
	return ep.Close()
}

// Close shuts the fabric down, closing every endpoint.
func (n *Network) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	eps := make([]*Endpoint, 0, len(n.eps))
	for _, ep := range n.eps {
		eps = append(eps, ep)
	}
	n.eps = make(map[identity.NodeID]*Endpoint)
	n.mu.Unlock()
	for _, ep := range eps {
		_ = ep.Close()
	}
	return nil
}

// deliverTo hands an envelope to ep, the endpoint of to (nil if there
// is none). A response or a PoP read request goes to ep's response
// handler when it has one (see the package doc), on this goroutine and
// outside stateMu: serving a request sends the reply, and a
// self-addressed request re-enters ep, where a second read lock could
// wait behind a Close. serving lets Close wait for the call instead.
// Anything else is enqueued on the inbox and dropped on overflow.
func deliverTo(ep *Endpoint, to identity.NodeID, env Envelope) error {
	if ep == nil {
		return fmt.Errorf("%w: %v", ErrUnknownPeer, to)
	}
	ep.stateMu.RLock()
	if ep.closed {
		ep.stateMu.RUnlock()
		return fmt.Errorf("%w: %v", ErrClosed, to)
	}
	if f := ep.onResponse; f != nil && (solicited(env.Msg) || popRequest(env.Msg)) {
		ep.serving.Add(1)
		ep.stateMu.RUnlock()
		defer ep.serving.Done()
		f(env.Msg)
		return nil
	}
	defer ep.stateMu.RUnlock()
	select {
	case ep.inbox <- env:
		return nil
	default:
		return fmt.Errorf("%w: to %v", ErrBackpressure, to)
	}
}

// Endpoint is one node's attachment to a Network.
type Endpoint struct {
	net   *Network
	id    identity.NodeID
	inbox chan Envelope

	// stateMu guards closed so no delivery can race the inbox close,
	// and onResponse.
	stateMu    sync.RWMutex
	closed     bool
	onResponse func(*wire.Message)
	done       chan struct{}

	// serving counts the onResponse calls in flight (deliverTo).
	serving sync.WaitGroup
}

var _ Transport = (*Endpoint)(nil)

// Self implements Transport.
func (e *Endpoint) Self() identity.NodeID { return e.id }

// Inbox implements Transport.
func (e *Endpoint) Inbox() <-chan Envelope { return e.inbox }

// SetResponseHandler implements Transport.
func (e *Endpoint) SetResponseHandler(f func(*wire.Message)) {
	e.stateMu.Lock()
	defer e.stateMu.Unlock()
	e.onResponse = f
}

// Send implements Transport, applying the fabric's loss rule. The
// message is deep-copied so sender and receiver never share memory.
// One read lock yields the rule, the fabric's state and the target
// endpoint, which the frame is handed to on this goroutine.
func (e *Endpoint) Send(ctx context.Context, to identity.NodeID, msg *wire.Message) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	select {
	case <-e.done:
		return ErrClosed
	default:
	}
	e.net.mu.RLock()
	drop, closed := e.net.drop, e.net.closed
	target := e.net.eps[to]
	e.net.mu.RUnlock()
	if closed {
		return ErrClosed
	}
	if drop != nil && drop(e.id, to, msg) {
		return nil // silently lost, like a radio frame
	}
	// Deep-copy through the codec using a pooled encode buffer: Decode
	// copies the payload out, so the scratch frame never escapes.
	buf := getFrame()
	b := msg.AppendEncode(*buf)
	cp, err := wire.Decode(b)
	*buf = b
	putFrame(buf)
	if err != nil {
		return fmt.Errorf("transport: message not encodable: %w", err)
	}
	return deliverTo(target, to, Envelope{From: e.id, Msg: cp})
}

// Close implements Transport. It returns once no call of the direct
// handler is in flight: a request being served when Close began has
// been answered (or its reply failed), and no later one starts.
func (e *Endpoint) Close() error {
	e.stateMu.Lock()
	if !e.closed {
		e.closed = true
		close(e.done)
		close(e.inbox)
	}
	e.stateMu.Unlock()
	e.serving.Wait()
	return nil
}
