package transport

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/twoldag/twoldag/internal/identity"
	"github.com/twoldag/twoldag/internal/wire"
)

// inboxCapacity bounds each endpoint's receive queue. A full inbox
// drops the message (radio networks are lossy; upper layers retry).
const inboxCapacity = 256

// Network is an in-memory message fabric connecting Endpoints. It
// supports latency and loss injection for protocol testing. The zero
// value is not usable; call NewNetwork.
type Network struct {
	mu      sync.RWMutex
	eps     map[identity.NodeID]*Endpoint
	latency func(from, to identity.NodeID) time.Duration
	drop    func(from, to identity.NodeID, m *wire.Message) bool
	closed  bool
	wg      sync.WaitGroup
}

// NewNetwork creates an empty fabric with zero latency and no loss.
func NewNetwork() *Network {
	return &Network{eps: make(map[identity.NodeID]*Endpoint)}
}

// SetLatency installs a per-link latency function (nil = instant).
func (n *Network) SetLatency(f func(from, to identity.NodeID) time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.latency = f
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

// Close shuts the fabric down, closing every endpoint after in-flight
// delayed deliveries settle.
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
	n.wg.Wait()
	for _, ep := range eps {
		_ = ep.Close()
	}
	return nil
}

// deliver hands an envelope to the target: a response goes to the
// target's response handler on this goroutine, anything else is
// enqueued on its inbox and dropped on overflow.
func (n *Network) deliver(to identity.NodeID, env Envelope) error {
	n.mu.RLock()
	ep, ok := n.eps[to]
	n.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %v", ErrUnknownPeer, to)
	}
	ep.stateMu.RLock()
	defer ep.stateMu.RUnlock()
	if ep.closed {
		return fmt.Errorf("%w: %v", ErrClosed, to)
	}
	if ep.onResponse != nil && solicited(env.Msg) {
		ep.onResponse(env.Msg)
		return nil
	}
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

// Send implements Transport, applying the fabric's loss and latency
// rules. The message is deep-copied so sender and receiver never share
// memory.
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
	drop, lat := e.net.drop, e.net.latency
	closed := e.net.closed
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
	env := Envelope{From: e.id, Msg: cp}
	if lat == nil {
		return e.net.deliver(to, env)
	}
	d := lat(e.id, to)
	if d <= 0 {
		return e.net.deliver(to, env)
	}
	e.net.wg.Add(1)
	timer := time.AfterFunc(d, func() {
		defer e.net.wg.Done()
		_ = e.net.deliver(to, env) // late loss is indistinguishable from drop
	})
	_ = timer
	return nil
}

// Close implements Transport.
func (e *Endpoint) Close() error {
	e.stateMu.Lock()
	defer e.stateMu.Unlock()
	if e.closed {
		return nil
	}
	e.closed = true
	close(e.done)
	close(e.inbox)
	return nil
}
