package transport

import "sync"

// framePool recycles frame buffers across sends and reads. TCP framing
// and the in-memory fabric's deep copy both encode every message into
// a scratch buffer whose contents do not outlive the call —
// wire.Decode copies the payload out — so buffers can be pooled
// instead of allocated per message (a ROADMAP hot-path item: blocks
// carry up to ~1 MB bodies, and per-message allocation dominated
// transport CPU). A TCP read loop holds a buffer only while a frame is
// in hand — from its length prefix until wire.Decode has copied the
// payload out — so a connection waiting for its next frame pins none,
// whatever the largest frame it once carried.
var framePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// getFrame returns a pooled buffer with length 0 and whatever capacity
// the pool had on hand.
func getFrame() *[]byte {
	return framePool.Get().(*[]byte)
}

// putFrame recycles a buffer. Callers must not retain references into
// it afterwards.
func putFrame(b *[]byte) {
	*b = (*b)[:0]
	framePool.Put(b)
}
