package ledger

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/merkle"
)

// Bodies on disk. A durable node's S_i holds every own block twice
// unless it lets one copy go: its segment (see FileBackend) has each
// block's record at an offset that never changes, so once a committed
// checkpoint covers a block the store keeps it without its body —
// header, body-root memo, the record's end — and reads the body back
// when a block is asked for whole (Get: GET_BLOCK, Runtime.Block,
// sample proofs). Everything else the protocol asks of S_i (responder
// queries, Latest, Headers, the state digest, checkpoints) reads
// headers and memos only. No read is kept: every Get of a segmented
// block reads its record (BenchmarkHotpathSegmentGet prices one).

// segmentBodies is where a durable store reads back the bodies it
// does not hold: the first len(ends) blocks of the log sit in the
// segment r, block i's record ending at ends[i] and starting where
// block i-1's ends (block 0's at 0).
type segmentBodies struct {
	r    io.ReaderAt
	ends []int64 // guarded by the store's lock
}

// start is where block seq's record starts. Caller holds the store's
// lock.
func (sb *segmentBodies) start(seq uint32) int64 {
	if seq == 0 {
		return 0
	}
	return sb.ends[seq-1]
}

// readSegmented reads the segment record of b, bytes [start, end) of
// r, and returns a fresh block: b's header, shared, and the body the
// record holds. The record must be intact (its CRC), a block record,
// and open with b's header byte for byte — so with b's origin and
// sequence number too; anything else is ErrBadSegment, never another
// block. The body is not held to the header's Root here: the fresh
// block carries no body-root memo, so whoever validates it hashes the
// body it got.
func readSegmented(r io.ReaderAt, b *block.Block, start, end int64) (*block.Block, error) {
	h := &b.Header
	rec := make([]byte, end-start)
	if n, err := r.ReadAt(rec, start); n < len(rec) {
		if err == nil || errors.Is(err, io.EOF) {
			return nil, fmt.Errorf("%w: %v#%d: the segment ends inside its record at offset %d", ErrBadSegment, h.Origin, h.Seq, start)
		}
		return nil, fmt.Errorf("ledger: reading %v#%d from its segment: %w", h.Origin, h.Seq, err)
	}
	got, n, err := scanWALRecord(rec)
	if err != nil || n != len(rec) || got.kind != walKindBlock {
		return nil, fmt.Errorf("%w: %v#%d: no block record at offset %d", ErrBadSegment, h.Origin, h.Seq, start)
	}
	var scratch [1024]byte
	p, hdr := got.payload, block.AppendEncodeHeader(scratch[:0], h)
	if len(p) < len(hdr)+4 || !bytes.Equal(p[:len(hdr)], hdr) ||
		int(binary.LittleEndian.Uint32(p[len(hdr):])) != len(p)-len(hdr)-4 {
		return nil, fmt.Errorf("%w: %v#%d: the record at offset %d holds another block", ErrBadSegment, h.Origin, h.Seq, start)
	}
	return &block.Block{Header: *h, Body: p[len(hdr)+4 : len(p) : len(p)]}, nil
}

// readBodiesFrom makes r, the owner's segment, where this store reads
// back the bodies segmented lets go of. The backend installs it once,
// when it first opens the segment, the way SetJournal installs the
// journal.
func (s *Store) readBodiesFrom(r io.ReaderAt) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seg = &segmentBodies{r: r}
}

// segmented records that the next len(ends) blocks after those already
// recorded sit in the segment — ends[k] is where the k-th one's record
// ends — and lets go of their bodies: each is replaced by a body-less
// copy (block.Block.WithoutBody), which Get reads back. Readers holding
// the replaced block keep it whole. A block without a body-root memo
// under the default leaf size stays whole, since the state digest
// needs that root; one restored without its body (readSegment) has
// none to let go.
func (s *Store) segmented(ends []int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	from := len(s.seg.ends)
	for k := range ends {
		b := s.blocks[from+k]
		if _, ok := b.CachedBodyRoot(merkle.DefaultLeafSize); ok && b.Body != nil {
			s.blocks[from+k] = b.WithoutBody()
		}
	}
	s.seg.ends = append(s.seg.ends, ends...)
}
