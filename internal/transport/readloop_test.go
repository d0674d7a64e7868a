package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/identity"
	"github.com/twoldag/twoldag/internal/wire"
)

// liveHeap is the live heap: two collections (the second empties the
// frame pool's victim cache), then HeapAlloc.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// writeFrame writes msg's length-prefixed frame to w.
func writeFrame(t testing.TB, w io.Writer, msg *wire.Message) {
	t.Helper()
	out := binary.LittleEndian.AppendUint32(nil, uint32(msg.WireSize()))
	if _, err := w.Write(msg.AppendEncode(out)); err != nil {
		t.Fatal(err)
	}
}

// TestIdleConnectionsHoldNoFrameBuffer: 16 peers each send one 256 KiB
// frame (undecodable, so it is read and skipped) and a small announce
// behind it, then fall idle with their connections open. The read loops
// must hold no frame buffer while they wait: the live heap grows by far
// less than the 16 x 256 KiB a loop that keeps its largest buffer for
// the connection's life pins.
func TestIdleConnectionsHoldNoFrameBuffer(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocator inflates HeapAlloc")
	}
	const peers, frameSize, ceiling = 16, 256 << 10, 512 << 10
	n, err := ListenTCP(1, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	big := make([]byte, 4+frameSize)
	binary.LittleEndian.PutUint32(big, frameSize)
	big[4] = 0xFF // no wire kind: the frame does not decode
	conns := make([]net.Conn, peers)
	before := liveHeap()
	for i := range conns {
		c, err := net.Dial("tcp", n.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		conns[i] = c
		if _, err := c.Write(big); err != nil {
			t.Fatal(err)
		}
		from := identity.NodeID(100 + i)
		writeFrame(t, c, wire.NewDigestBatch(from, 1, []digest.Digest{digest.Sum([]byte{byte(i)})}, 1))
	}
	// A connection's frames are read in order, so its announce arriving
	// means its large frame was read before it.
	for range peers {
		select {
		case <-n.Inbox():
		case <-time.After(5 * time.Second):
			t.Fatal("an announce behind a large frame never arrived")
		}
	}
	grown := int64(liveHeap()) - int64(before)
	runtime.KeepAlive(conns)
	runtime.KeepAlive(big)
	t.Logf("%d idle connections after one %d KiB frame each: live heap %+d KiB", peers, frameSize>>10, grown>>10)
	if grown > ceiling {
		t.Fatalf("idle connections hold %d KiB of live heap, ceiling %d KiB", grown>>10, ceiling>>10)
	}
}

// TestBootstrapFrameOnDialedConnectionIsDropped: a peer this node
// dialed sends a bootstrap Hello back on that connection. The node must
// neither run its bootstrap handler nor write a reply there — Send
// writes that connection under its lock, and a reply written past the
// lock could interleave with Send's frames. Frames behind it still
// arrive.
func TestBootstrapFrameOnDialedConnectionIsDropped(t *testing.T) {
	n, err := ListenTCP(1, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	var served atomic.Int32
	n.SetBootstrapHandler(func(m *wire.Message) *wire.Message {
		served.Add(1)
		return wire.NewPeerList(m, nil)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	n.SetPeer(2, ln.Addr().String())
	if err := n.Send(context.Background(), 2, announce(1, 2, "dial")); err != nil {
		t.Fatal(err)
	}
	peer, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	var lenBuf [4]byte
	if _, err := io.ReadFull(peer, lenBuf[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := io.CopyN(io.Discard, peer, int64(binary.LittleEndian.Uint32(lenBuf[:]))); err != nil {
		t.Fatal(err)
	}

	writeFrame(t, peer, wire.NewHello(wire.BootstrapID, 1, wire.HelloInfo{Anchor: wire.NoAnchor}, 1, 1))
	writeFrame(t, peer, announce(2, 1, "behind"))
	select {
	case env := <-n.Inbox():
		if env.From != 2 {
			t.Fatalf("unexpected envelope from %v", env.From)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the frame behind the bootstrap Hello never arrived")
	}
	if got := served.Load(); got != 0 {
		t.Fatalf("the bootstrap handler ran %d times for a frame on a dialed connection", got)
	}
	// The announce behind the Hello was handled, so a reply to the Hello
	// would already be on the wire.
	_ = peer.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	if k, err := peer.Read(lenBuf[:]); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("the dialed connection carried %d bytes back (%v), want none", k, err)
	}
}

// BenchmarkHotpathTCPRoundTrip times one REQ_CHILD/RPY_CHILD exchange
// through RPC.Call between two TCPNodes on loopback: encode and one
// write per frame, the read loop's frame buffer taken and handed back
// on each side, the dispatch goroutine's reply and the caller's
// wake-up.
func BenchmarkHotpathTCPRoundTrip(b *testing.B) {
	key := identity.Deterministic(3, 3)
	p := block.DefaultParams()
	p.Difficulty = 2
	blk, err := p.Build(key, 1, 1, make([]byte, 1024), []block.DigestRef{
		{Node: 3, Digest: digest.Sum([]byte("prev"))},
		{Node: 4, Digest: digest.Sum([]byte("nb"))},
	})
	if err != nil {
		b.Fatal(err)
	}
	a, err := ListenTCP(1, "127.0.0.1:0", nil)
	if err != nil {
		b.Fatal(err)
	}
	defer a.Close()
	srv, err := ListenTCP(2, "127.0.0.1:0", nil)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	a.SetPeer(2, srv.Addr())
	srv.SetPeer(1, a.Addr())
	var responder *RPC
	responder = NewRPC(srv, func(env Envelope) {
		_ = responder.Transport().Send(context.Background(), env.From, wire.NewRpyChild(env.Msg, &blk.Header))
	}, time.Second)
	defer responder.Close()
	caller := NewRPC(a, nil, 5*time.Second)
	defer caller.Close()
	target := digest.Sum([]byte("target"))
	call := func() {
		resp, err := caller.Call(context.Background(), 2, func(corr, nonce uint64) *wire.Message {
			return wire.NewReqChild(1, 2, target, corr, nonce)
		})
		if err != nil || resp.Kind != wire.KindRpyChild {
			b.Fatalf("Call: %v %v", resp, err)
		}
	}
	call() // dial both connections before the clock starts
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		call()
	}
}
