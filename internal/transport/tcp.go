package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"github.com/twoldag/twoldag/internal/identity"
	"github.com/twoldag/twoldag/internal/wire"
)

// maxFrame bounds accepted frame sizes, matching the wire decoder
// limit.
const maxFrame = wire.MaxPayload + 1024

// ErrFrameTooLarge reports an oversized incoming frame.
var ErrFrameTooLarge = errors.New("transport: frame exceeds limit")

// TCPNode is a Transport over real TCP connections with 4-byte
// length-prefixed frames. Peers are dialed lazily from a directory of
// addresses; inbound connections are identified by the From field of
// their messages, which this layer takes on trust. Only two frame
// kinds carry signed content that higher layers check: RPY_CHILD (a
// header, signed by its origin per Eq. 6) and BLOCK_RESP (a block,
// whose signed header binds its body through the Merkle root). The
// rest — REQ_CHILD, GET_BLOCK, NOT_FOUND, DigestBatch, DigestAck,
// Hello, PeerList and Leave — carry no signature, so nothing checks
// that their sender is the node their From field names.
type TCPNode struct {
	self      identity.NodeID
	ln        net.Listener
	advertise string

	mu      sync.Mutex
	addrs   map[identity.NodeID]string
	conns   map[identity.NodeID]*lockedConn
	inbound map[net.Conn]struct{}

	inbox chan Envelope

	stateMu     sync.RWMutex
	closed      bool
	onDrop      func(Envelope)
	onBootstrap func(*wire.Message) *wire.Message
	onResponse  func(*wire.Message)

	wg sync.WaitGroup
}

var _ Transport = (*TCPNode)(nil)

// lockedConn serializes frame writes on a shared connection.
type lockedConn struct {
	mu sync.Mutex
	c  net.Conn
}

// TCPOption tunes ListenTCP.
type TCPOption func(*TCPNode)

// WithAdvertiseAddr sets the address the node announces to peers
// instead of the bound listener address — a node bound to ":0" (or
// behind NAT-style address rewriting) stays reachable by handing out
// an address that routes to it.
func WithAdvertiseAddr(addr string) TCPOption {
	return func(n *TCPNode) { n.advertise = addr }
}

// ListenTCP starts a node listening on addr. The directory maps peers
// to their dial addresses; SetPeer/RemovePeer update it while the node
// runs.
func ListenTCP(self identity.NodeID, addr string, directory map[identity.NodeID]string, opts ...TCPOption) (*TCPNode, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	n := &TCPNode{
		self:    self,
		ln:      ln,
		addrs:   make(map[identity.NodeID]string, len(directory)),
		conns:   make(map[identity.NodeID]*lockedConn),
		inbound: make(map[net.Conn]struct{}),
		inbox:   make(chan Envelope, inboxCapacity),
	}
	for id, a := range directory {
		n.addrs[id] = a
	}
	for _, opt := range opts {
		opt(n)
	}
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// Addr returns the bound listen address (useful with ":0").
func (n *TCPNode) Addr() string { return n.ln.Addr().String() }

// AdvertiseAddr returns the address this node announces to peers: the
// WithAdvertiseAddr override when set, the bound address otherwise.
func (n *TCPNode) AdvertiseAddr() string {
	if n.advertise != "" {
		return n.advertise
	}
	return n.ln.Addr().String()
}

// SetPeer registers or updates a peer's dial address. When the address
// changes, any cached connection to the peer is dropped so the next
// Send dials the new address.
func (n *TCPNode) SetPeer(id identity.NodeID, addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if prev, ok := n.addrs[id]; ok && prev != addr {
		if lc, ok := n.conns[id]; ok {
			lc.c.Close()
			delete(n.conns, id)
		}
	}
	n.addrs[id] = addr
}

// RemovePeer forgets a peer: its directory entry is deleted and any
// cached connection closed. Subsequent Sends fail with ErrUnknownPeer
// until SetPeer re-registers it.
func (n *TCPNode) RemovePeer(id identity.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.addrs, id)
	if lc, ok := n.conns[id]; ok {
		lc.c.Close()
		delete(n.conns, id)
	}
}

// Peer looks up a peer's registered dial address.
func (n *TCPNode) Peer(id identity.NodeID) (string, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	addr, ok := n.addrs[id]
	return addr, ok
}

// SetDropHandler installs a callback invoked for each inbound frame
// lost to a full inbox (receiver-side backpressure, which TCP cannot
// report to the sender). The envelope is only valid for the duration
// of the call. Must be set before traffic flows; the handler runs on
// read-loop goroutines and must be cheap and non-blocking.
func (n *TCPNode) SetDropHandler(f func(Envelope)) {
	n.stateMu.Lock()
	defer n.stateMu.Unlock()
	n.onDrop = f
}

// SetBootstrapHandler installs the discovery responder: a frame whose
// From is wire.BootstrapID comes from a joiner that has no identity or
// directory yet (see Bootstrap), so instead of entering the inbox the
// handler's reply is written straight back on the same connection.
// Only a connection the joiner dialed is answered; such a frame on a
// connection this node dialed is dropped. A nil handler (the default)
// drops every such frame. The handler runs on
// read-loop goroutines and must be safe for concurrent use.
func (n *TCPNode) SetBootstrapHandler(f func(*wire.Message) *wire.Message) {
	n.stateMu.Lock()
	defer n.stateMu.Unlock()
	n.onBootstrap = f
}

// SetResponseHandler implements Transport. The handler runs on
// read-loop goroutines (and on the sender's for a self-addressed
// frame).
func (n *TCPNode) SetResponseHandler(f func(*wire.Message)) {
	n.stateMu.Lock()
	defer n.stateMu.Unlock()
	n.onResponse = f
}

// Self implements Transport.
func (n *TCPNode) Self() identity.NodeID { return n.self }

// Inbox implements Transport.
func (n *TCPNode) Inbox() <-chan Envelope { return n.inbox }

func (n *TCPNode) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		n.stateMu.RLock()
		closed := n.closed
		n.stateMu.RUnlock()
		if closed {
			conn.Close()
			return
		}
		n.mu.Lock()
		n.inbound[conn] = struct{}{}
		n.mu.Unlock()
		n.wg.Add(1)
		go n.readLoop(conn, true)
	}
}

// readLoop decodes frames from one connection and hands each to the
// response handler or the inbox. accepted says the peer dialed this
// node: only such a connection answers bootstrap frames. A frame buffer
// is held only while a frame is in hand (readFrame), so an idle
// connection pins none.
func (n *TCPNode) readLoop(conn net.Conn, accepted bool) {
	defer n.wg.Done()
	defer func() {
		conn.Close()
		n.mu.Lock()
		delete(n.inbound, conn)
		n.mu.Unlock()
	}()
	var lenBuf [4]byte
	for {
		if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
			return
		}
		size := binary.LittleEndian.Uint32(lenBuf[:])
		if size > maxFrame {
			return // hostile peer; drop the connection
		}
		msg, ok := readFrame(conn, size)
		if !ok {
			return
		}
		if msg == nil {
			continue // skip malformed frames, keep the connection
		}
		if msg.From == wire.BootstrapID {
			// Discovery exchange: reply on this connection (the sender has
			// no listener registered anywhere yet) and keep the frame out
			// of the inbox. Writes are safe unlocked on an accepted
			// connection only — its own read loop is its one writer. Send
			// writes a dialed one under lockedConn.mu, so a bootstrap
			// frame arriving there is dropped: a joiner dials in.
			n.stateMu.RLock()
			handler := n.onBootstrap
			n.stateMu.RUnlock()
			if handler == nil || !accepted {
				continue
			}
			reply := handler(msg)
			if reply == nil {
				continue
			}
			out := binary.LittleEndian.AppendUint32(nil, uint32(reply.WireSize()))
			if _, err := conn.Write(reply.AppendEncode(out)); err != nil {
				return
			}
			continue
		}
		n.stateMu.RLock()
		if n.closed {
			n.stateMu.RUnlock()
			return
		}
		// Lossy under overload, like the in-memory fabric; the drop
		// handler lets the node surface it as a MessageDropped event.
		if !n.route(Envelope{From: msg.From, Msg: msg}) && n.onDrop != nil {
			n.onDrop(Envelope{From: msg.From, Msg: msg})
		}
		n.stateMu.RUnlock()
	}
}

// readFrame reads the size-byte frame behind a length prefix into a
// pooled buffer and decodes it. The buffer is back in the pool when it
// returns, on every path: wire.Decode copies the payload out. It
// reports false when the read failed; a frame that does not decode
// yields a nil message.
func readFrame(r io.Reader, size uint32) (*wire.Message, bool) {
	buf := getFrame()
	defer putFrame(buf)
	if cap(*buf) < int(size) {
		*buf = make([]byte, size)
	}
	frame := (*buf)[:size]
	if _, err := io.ReadFull(r, frame); err != nil {
		return nil, false
	}
	msg, _ := wire.Decode(frame)
	return msg, true
}

// route hands env to the response handler or queues it on the inbox,
// and reports false when a full inbox shed it. The caller holds stateMu
// for reading and has checked closed.
func (n *TCPNode) route(env Envelope) bool {
	if n.onResponse != nil && solicited(env.Msg) {
		n.onResponse(env.Msg)
		return true
	}
	select {
	case n.inbox <- env:
		return true
	default:
		return false
	}
}

// Send implements Transport, dialing the peer on first use.
// Self-sends short-circuit into the local inbox without touching the
// network — parity with the in-memory fabric, which PoP relies on when
// the validator itself is a digest holder on the audited path.
func (n *TCPNode) Send(ctx context.Context, to identity.NodeID, msg *wire.Message) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	n.stateMu.RLock()
	closed := n.closed
	n.stateMu.RUnlock()
	if closed {
		return ErrClosed
	}
	if to == n.self {
		return n.deliverLocal(msg)
	}
	lc, err := n.conn(ctx, to)
	if err != nil {
		return err
	}
	// Assemble length prefix and frame in one pooled buffer: a single
	// Write per message (half the syscalls) and no per-message encode
	// allocation.
	buf := getFrame()
	defer putFrame(buf)
	b := binary.LittleEndian.AppendUint32(*buf, uint32(msg.WireSize()))
	b = msg.AppendEncode(b)
	*buf = b
	lc.mu.Lock()
	defer lc.mu.Unlock()
	if _, err := lc.c.Write(b); err != nil {
		n.dropConn(to)
		return fmt.Errorf("%w: writing to %v: %v", ErrPeerUnreachable, to, err)
	}
	return nil
}

// deliverLocal enqueues a self-addressed frame, deep-copying through
// the codec so sender and receiver never share memory (the same
// guarantee a socket round trip gives).
func (n *TCPNode) deliverLocal(msg *wire.Message) error {
	buf := getFrame()
	b := msg.AppendEncode(*buf)
	cp, err := wire.Decode(b)
	*buf = b
	putFrame(buf)
	if err != nil {
		return fmt.Errorf("transport: message not encodable: %w", err)
	}
	n.stateMu.RLock()
	defer n.stateMu.RUnlock()
	if n.closed {
		return ErrClosed
	}
	if !n.route(Envelope{From: n.self, Msg: cp}) {
		// The sender IS the receiver, so the overflow is reportable as a
		// send error, exactly like the in-memory fabric's.
		return fmt.Errorf("%w: to %v", ErrBackpressure, n.self)
	}
	return nil
}

func (n *TCPNode) conn(ctx context.Context, to identity.NodeID) (*lockedConn, error) {
	n.mu.Lock()
	if lc, ok := n.conns[to]; ok {
		n.mu.Unlock()
		return lc, nil
	}
	addr, ok := n.addrs[to]
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrUnknownPeer, to)
	}
	var d net.Dialer
	c, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("transport: dialing %v at %s: %w", to, addr, ctx.Err())
		}
		return nil, fmt.Errorf("%w: dialing %v at %s: %v", ErrPeerUnreachable, to, addr, err)
	}
	lc := &lockedConn{c: c}
	n.mu.Lock()
	if existing, ok := n.conns[to]; ok {
		n.mu.Unlock()
		c.Close()
		return existing, nil
	}
	n.conns[to] = lc
	n.mu.Unlock()
	// Read replies arriving on the outbound connection too.
	n.wg.Add(1)
	go n.readLoop(c, false)
	return lc, nil
}

func (n *TCPNode) dropConn(to identity.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if lc, ok := n.conns[to]; ok {
		lc.c.Close()
		delete(n.conns, to)
	}
}

// Close implements Transport.
func (n *TCPNode) Close() error {
	n.stateMu.Lock()
	if n.closed {
		n.stateMu.Unlock()
		return nil
	}
	n.closed = true
	n.stateMu.Unlock()
	err := n.ln.Close()
	n.mu.Lock()
	for id, lc := range n.conns {
		lc.c.Close()
		delete(n.conns, id)
	}
	for conn := range n.inbound {
		conn.Close()
	}
	n.mu.Unlock()
	n.wg.Wait()
	close(n.inbox)
	return err
}
