// Package transport carries 2LDAG wire messages between nodes. Two
// implementations are provided: an in-memory network with injectable
// loss and partitions (deterministic tests, single-process
// deployments) and a TCP transport with length-prefixed frames (real
// distributed deployments). An RPC layer adds request/response
// correlation with timeouts τ on top of either, which is what the PoP
// validator's REQ_CHILD exchange (Algorithm 3 line 19) requires.
//
// A TCP connection costs its node a read loop and no frame buffer while
// it is idle: the loop takes a pooled buffer once a frame's length
// prefix has arrived and hands it back as soon as the frame is decoded,
// so what a device spends on a peer does not grow with the largest
// frame that peer ever sent.
//
// # Who completes a call
//
// A frame reaches its receiver on the fabric's delivering goroutine:
// the sender's own goroutine on the in-memory network, a connection's
// read loop on TCP.
// What happens next depends on the frame.
//
// A response — Kind.IsResponse with a non-zero correlation ID — is
// handed to the function installed with SetResponseHandler, right there
// on the delivering goroutine. RPC installs its completion routine,
// which looks the correlation ID up, hands the message to the one Call
// waiting for it and returns; the caller wakes directly, without a
// pass through the inbox and the dispatch goroutine. Responses can
// bypass the bounded inbox because they are solicited: at most one per
// outstanding Call, so the callers themselves bound them, completing
// one is a map lookup and a buffered channel send that never blocks,
// and a response shed by a full inbox would cost its caller a whole
// timeout τ. A response nobody waits for (late, duplicated, forged
// correlation ID) is dropped.
//
// On the in-memory fabric that function also gets PoP's two read
// requests, REQ_CHILD and GET_BLOCK, when a Call sent them (non-zero
// correlation ID). RPC's completion routine routes them by kind to the
// RPC's handler, the same one that serves them from the inbox on TCP,
// so a warm audit runs start to end on the requester's goroutine: the
// request is answered there, and the reply completes the call there,
// with no goroutine woken on either side. That is safe because both
// answers are read-only lookups of S_i under the store's own locks.
// Such a request is never shed: the requester's goroutine does the
// work, so its own CPU bounds how many arrive. The fabric runs the
// handler outside the endpoint's lock (a self-audit re-enters its own
// endpoint), and Endpoint.Close waits for the calls in flight, so none
// runs after Close returns.
//
// TCP keeps queuing these requests on the inbox. Serving them on the
// read loops bought nothing measurable over loopback in a prototype,
// and it can deadlock: a read loop that blocks writing a reply — a
// BLOCK_RESP may be up to block.MaxEncodedLen, about 16 MiB — stops
// draining its connection, and two nodes whose read loops each wait
// for the other to drain stall for good once the replies outgrow the
// socket buffers.
//
// Everything else — announcements, acks, membership frames, requests
// on TCP, unsolicited pushes with correlation 0 — is queued on the
// bounded inbox and handled one frame at a time by the RPC's dispatch
// goroutine. These are unsolicited: a peer decides how many arrive,
// and handling one does real work (a store lookup and a reply, an A_i
// update, observer callbacks), so they need a queue that sheds under
// overload, and the node's receive path relies on their serial
// handling. A transport nobody called SetResponseHandler on queues
// responses and requests on the inbox like any other frame.
package transport

import (
	"context"
	"errors"

	"github.com/twoldag/twoldag/internal/identity"
	"github.com/twoldag/twoldag/internal/wire"
)

// Sentinel errors.
var (
	ErrClosed        = errors.New("transport: closed")
	ErrUnknownPeer   = errors.New("transport: unknown peer")
	ErrDuplicatePeer = errors.New("transport: peer already registered")
	ErrBackpressure  = errors.New("transport: peer inbox full, message dropped")
	// ErrPeerUnreachable reports a peer that could not be reached at
	// the link layer: a failed dial, a reset connection, a dead
	// listener. Unlike ErrUnknownPeer (a directory miss, permanent
	// until registration) it is transient — retry policies treat it as
	// retryable and health trackers count it toward suspicion.
	ErrPeerUnreachable = errors.New("transport: peer unreachable")
)

// Envelope is a received message with its link-layer sender.
type Envelope struct {
	From identity.NodeID
	Msg  *wire.Message
}

// Transport sends and receives wire messages for one node.
//
// Retry/idempotency contract: Send is best-effort and at-most-once at
// this layer — a nil return means the frame was handed to the fabric,
// not that the peer processed it, and an error return may still have
// delivered (a TCP write can fail after bytes left the host). Callers
// that need delivery therefore retry at the protocol layer, which is
// safe because every 2LDAG receive path is idempotent: digest
// announcements dedup on the digest before any side effect (see
// node.AnnounceBatch), and request/response exchanges correlate by ID
// so a re-sent request at worst produces an ignored duplicate reply.
// Implementations must serialize msg before Send returns and never
// retain it — callers may immediately reuse or retarget the message.
type Transport interface {
	// Self returns the local node ID.
	Self() identity.NodeID
	// Send delivers msg to the peer. Delivery is best-effort: lossy
	// networks may drop (ErrBackpressure), radio neighbors may be
	// unreachable (ErrPeerUnreachable), and silent in-flight loss
	// reports nothing at all.
	Send(ctx context.Context, to identity.NodeID, msg *wire.Message) error
	// Inbox streams received messages until the transport closes.
	Inbox() <-chan Envelope
	// SetResponseHandler installs the consumer of response frames
	// (Kind.IsResponse with a non-zero Corr): from then on they are
	// passed to f on the delivering goroutine instead of being queued on
	// the inbox (see the package doc). The in-memory fabric passes it
	// correlated REQ_CHILD and GET_BLOCK frames too, and f serves those
	// there; serving one must not block either. NewRPC calls it; a
	// transport without a handler queues every frame.
	SetResponseHandler(f func(*wire.Message))
	// Close releases resources and closes the inbox.
	Close() error
}

// solicited reports whether msg answers a request some Call may be
// waiting on — the frames a response handler consumes.
func solicited(msg *wire.Message) bool {
	return msg.Corr != 0 && msg.Kind.IsResponse()
}

// popRequest reports whether msg is one of PoP's two read requests,
// REQ_CHILD or GET_BLOCK, sent by a Call (non-zero Corr): the frames
// the in-memory fabric also hands to the response handler.
func popRequest(msg *wire.Message) bool {
	return msg.Corr != 0 && (msg.Kind == wire.KindReqChild || msg.Kind == wire.KindGetBlock)
}
