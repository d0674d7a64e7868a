package ledger

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/identity"
	"github.com/twoldag/twoldag/internal/merkle"
)

// Blocks on disk. A durable node's S_i holds every own block twice
// unless it lets one copy go: the log holds each block's record from the
// commit window that made it durable until a compaction copies that
// record into the owner's segment, where it sits at an offset that never
// changes. So once the window that logged a block has fsynced, the store
// keeps three things of it — its header hash, its body root M(body)
// under the default leaf size and where its record sits — and lets the
// block go: in the log (loggedBlock, 88 B: the generation's read handle
// and the record's start and end) until the compaction that copies the
// record moves it to the segment (keptBlock, 72 B: the record's end; it
// starts where the one before ends). The newest block alone stays,
// without its body, for Latest. The state digest, checkpoints,
// ModelBits and BodyBytes read what is kept. Any read that needs more
// reads the record back, from whichever file holds it: Get (GET_BLOCK in
// process, Runtime.Block, sample proofs), Headers, and the responder
// index, whose build reads every header once and whose confirm of a hit
// reads the one it names. A header the build cannot read fails every
// later query whose answer is younger than that block, or that has none,
// since the block may hold the digest asked for. A read is one pread,
// the record's CRC, and one SHA-256 that holds the header bytes to the
// kept hash; a record that is not the block's is ErrBadSegment, never
// another block. The compaction's copy is such a read too, and also
// hashes the body against the kept root before the record joins the
// segment. A responder replying on the wire takes the record's payload
// as it is (Served): it already is the BLOCK_RESP payload, and its
// header prefix the RPY_CHILD one. No read is kept: every read of a
// block S_i let go of reads its record (BenchmarkHotpathSegmentGet and
// BenchmarkHotpathLoggedGet price a Get).

// keptBlock is what S_i keeps of a block its segment holds: the header
// hash and body root the state digest reads — the hash also tells the
// block's record from another's — and where the record ends.
type keptBlock struct {
	hash, root digest.Digest
	end        int64
}

// keep is what S_i keeps of b once its record, ending at end, is
// committed. b must still hold its body unless it carries a body-root
// memo under the default leaf size.
func keep(b *block.Block, end int64) keptBlock {
	return keptBlock{hash: b.Header.Hash(), root: digestRoot(b), end: end}
}

// digestRoot is b's body root under the default leaf size, the state
// digest's: the root memoized at seal time, or — for a block appended
// unsealed — hashed from its body.
func digestRoot(b *block.Block) digest.Digest {
	if root, ok := b.CachedBodyRoot(merkle.DefaultLeafSize); ok {
		return root
	}
	// RootOfBody fails only on a non-positive leaf size.
	root, _ := merkle.RootOfBody(b.Body, merkle.DefaultLeafSize)
	return root
}

// walSpan is where one block record sits in the log: the read handle on
// the generation holding it (Log.logReader) and the record's first byte
// and the byte past its last. The zero span names none.
type walSpan struct {
	gen        *os.File
	start, end int64
}

// loggedBlock is what S_i keeps of a block whose record only the log
// holds: what it keeps of a segmented one, and the record's span.
type loggedBlock struct {
	hash, root digest.Digest
	walSpan
}

// segment is where a durable store reads back the blocks it lets go
// of: the first len(recs) blocks of the log sit in r, block i's record
// ending at recs[i].end and starting where block i-1's ends (block 0's
// at 0).
type segment struct {
	r    io.ReaderAt
	recs []keptBlock // guarded by the store's lock
}

// recordAt is where block seq's record sits and the header hash it
// must carry. Caller holds the store's lock; the record never changes
// once committed, so it may be read without it.
func (sg *segment) recordAt(owner identity.NodeID, seq uint32) blockRecord {
	rr := blockRecord{r: sg.r, ref: block.Ref{Node: owner, Seq: seq}, end: sg.recs[seq].end, hash: sg.recs[seq].hash}
	if seq > 0 {
		rr.start = sg.recs[seq-1].end
	}
	return rr
}

// record is where w's record sits in the log, as block ref's.
func (w *loggedBlock) record(ref block.Ref) blockRecord {
	return blockRecord{r: w.gen, ref: ref, start: w.start, end: w.end, hash: w.hash}
}

// blockRecord is the record of one block S_i let go of, to read back
// from its segment or the log generation that holds it.
type blockRecord struct {
	r          io.ReaderAt
	ref        block.Ref
	start, end int64
	hash       digest.Digest
}

// readInto reads the record into rec, which is exactly its length, and
// returns its payload, the block's encoding. The record must be intact
// (its CRC) and a block record; anything else is ErrBadSegment. Whose
// block it holds is the caller's to check.
func (rr blockRecord) readInto(rec []byte) ([]byte, error) {
	if n, err := rr.r.ReadAt(rec, rr.start); n < len(rec) {
		if err == nil || errors.Is(err, io.EOF) {
			return nil, fmt.Errorf("%w: %v: its file ends inside its record at offset %d", ErrBadSegment, rr.ref, rr.start)
		}
		return nil, fmt.Errorf("ledger: reading %v back: %w", rr.ref, err)
	}
	got, n, err := scanWALRecord(rec)
	if err != nil || n != len(rec) || got.kind != walKindBlock {
		return nil, fmt.Errorf("%w: %v: no block record at offset %d", ErrBadSegment, rr.ref, rr.start)
	}
	return got.payload, nil
}

// payload reads the record into a buffer of its own (readInto).
func (rr blockRecord) payload() ([]byte, error) {
	return rr.readInto(make([]byte, rr.end-rr.start))
}

// otherBlock is the error of a record that holds another block than
// the one read back.
func (rr blockRecord) otherBlock() error {
	return fmt.Errorf("%w: %v: the record at offset %d holds another block", ErrBadSegment, rr.ref, rr.start)
}

// headerLen returns the length of the header payload p, the record's,
// opens with, once those bytes hash to the kept header hash and the
// body length is the rest.
func (rr blockRecord) headerLen(p []byte) (int, error) {
	n, ok := block.EncodedHeaderLen(p)
	if !ok || len(p)-n < 4 || int(binary.LittleEndian.Uint32(p[n:])) != len(p)-n-4 || digest.Sum(p[:n]) != rr.hash {
		return 0, rr.otherBlock()
	}
	return n, nil
}

// encoded reads the record for a reply: its payload, once its header
// checks out (headerLen).
func (rr blockRecord) encoded() (Served, error) {
	p, err := rr.payload()
	if err != nil {
		return Served{}, err
	}
	n, err := rr.headerLen(p)
	if err != nil {
		return Served{}, err
	}
	return Served{Enc: p, HeaderLen: n}, nil
}

// block reads the record back as a fresh read-only block: header and
// body decoded in place — the header sealed, its hash the kept one —
// with no body-root memo, so whoever validates it hashes the body it
// got.
func (rr blockRecord) block() (*block.Block, error) {
	p, err := rr.payload()
	if err != nil {
		return nil, err
	}
	b, err := block.DecodeShared(p)
	if err != nil || b.Header.Hash() != rr.hash {
		return nil, rr.otherBlock()
	}
	return b, nil
}

// appendTo appends the record to dst as a compaction copies it into the
// segment: read as encoded reads it, and its body hashed to the kept
// root first. A record that fails either leaves dst as it was.
func (rr blockRecord) appendTo(dst []byte, root digest.Digest) ([]byte, error) {
	at := len(dst)
	dst = slices.Grow(dst, int(rr.end-rr.start))[:at+int(rr.end-rr.start)]
	p, err := rr.readInto(dst[at:])
	if err != nil {
		return dst[:at], err
	}
	n, err := rr.headerLen(p)
	if err != nil {
		return dst[:at], err
	}
	if got, _ := merkle.RootOfBody(p[n+4:], merkle.DefaultLeafSize); got != root {
		return dst[:at], fmt.Errorf("%w: %v: the body at offset %d is not the one sealed", ErrBadSegment, rr.ref, rr.start)
	}
	return dst, nil
}

// Served is one of S_i's blocks as a read hands it to a responder:
// Block when S_i holds it (without its body when only its header was
// asked for and the body is in the segment), else Enc, the block's
// encoding read back from its segment record, whose first HeaderLen
// bytes are its header's and hash to the header hash S_i keeps. Enc is
// a BLOCK_RESP payload as it stands, and Enc[:HeaderLen] an RPY_CHILD
// one. Enc is read for this one call, and is read-only like a held
// block.
type Served struct {
	Block     *block.Block
	Enc       []byte
	HeaderLen int
}

// Header returns the served block's header: the held one, or one
// decoded from Enc.
func (v Served) Header() (*block.Header, error) {
	if v.Block != nil {
		return &v.Block.Header, nil
	}
	return block.DecodeHeader(v.Enc[:v.HeaderLen])
}

// contains reports whether the served block's Δ holds d.
func (v Served) contains(d digest.Digest) bool {
	if v.Block != nil {
		return v.Block.Header.Contains(d)
	}
	return block.EncodedContains(v.Enc[:v.HeaderLen], d)
}

// readBlocksFrom makes r, the owner's segment, where this store reads
// back the blocks segmented lets go of. The backend installs it once,
// when it first opens the segment, the way SetJournal installs the
// journal.
func (s *Store) readBlocksFrom(r io.ReaderAt) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seg = &segment{r: r}
}

// holdWhole reads back every block S_i keeps only a log span of and
// holds it whole from then on, its body hashed to the kept root first:
// what a store does that stops mirroring its segment
// (FileBackend.commitState), before the generations holding the
// records go. A record that fails the read fails the call, and S_i
// stays as it was.
func (s *Store) holdWhole() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.segmentedLocked()
	held := make([]*block.Block, len(s.wal))
	for i := range s.wal {
		w := &s.wal[i]
		rr := w.record(block.Ref{Node: s.owner, Seq: uint32(n + i)})
		b, err := rr.block()
		if err == nil && digestRoot(b) != w.root {
			err = rr.otherBlock()
		}
		if err != nil {
			return err
		}
		held[i] = b
	}
	copy(s.blocks[n:], held)
	s.wal = nil
	return nil
}

// segmented records that the next len(recs) blocks after those already
// recorded sit in the segment, and lets go of them: S_i keeps recs of
// them (taking recs itself when it kept none yet) in place of the spans
// it kept of those the log held, and of the newest block of its log a
// body-less copy (block.Block.WithoutBody) for Latest. The spans left,
// of blocks logged since the compaction gathered, move to an array of
// their own size: the one the compaction emptied goes. Readers holding
// a block let go keep it whole.
func (s *Store) segmented(recs []keptBlock) {
	s.mu.Lock()
	defer s.mu.Unlock()
	from := len(s.seg.recs)
	if from == 0 {
		s.seg.recs = recs
	} else {
		s.seg.recs = append(s.seg.recs, recs...)
	}
	if moved := min(len(recs), len(s.wal)); moved > 0 {
		s.wal = append([]loggedBlock(nil), s.wal[moved:]...)
	}
	newest := len(s.blocks) - 1
	for seq := from; seq < len(s.seg.recs); seq++ {
		switch b := s.blocks[seq]; {
		case seq != newest:
			s.blocks[seq] = nil
		case b.Body != nil:
			s.blocks[seq] = b.WithoutBody()
		}
	}
}
