package ledger

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/identity"
)

// On-disk state besides the log. IoT devices reboot, and a 2LDAG node
// that loses S_i loses the data only it stores (the whole point of the
// architecture is that nobody else holds it). What the log's
// generations no longer hold of an owner lives in two files of its own:
//
//   - its segment: its sealed blocks, oldest first, each framed exactly
//     like a WAL block record (appendWALRecord / scanWALRecord: one
//     codec). A block is appended once — by the compaction, Silence or
//     recovery that first finds it missing, which copies its record's
//     bytes from the log (or encodes a block S_i holds whole) — and
//     never copied again; from then on it is also where S_i reads the
//     block back from (bodies.go).
//   - its checkpoint: the rest of the node — trust cap, H_i, A_i — and
//     the segment prefix it vouches for (segmentMark: records, bytes,
//     newest header hash), CRC-sealed and replaced whole by rename.
//     Segment bytes past that prefix are an append whose checkpoint
//     never committed: recovery does not read them, and the next
//     append cuts them off first.
//
// Nothing hashes the segment as a whole: every block recovery reads
// from it is re-sealed and authenticated as a chain (recoverVerifier),
// each record carries its CRC, and the newest block must be the one the
// checkpoint names.
//
// The checkpoint is a fixed table of branches, one per part of the
// node's state, that the writer (put), the reader (get) and
// NodeState.Digest (sum) all address in table order:
//
//	magic(8) | owner(4)
//	| trustCap(4)                                                 trust cap
//	| records(4) | bytes(8) | newestHash(32)                       S_i
//	| inserted(8) | headers(4) | { len(4) | block.AppendEncodeHeader }…  H_i (insertion order)
//	| entries(4) | { node(4) | digest(32) }…                       A_i (node order)
//	| crc32c(4) over everything above
//
// The cap comes first so it is in force before H_i is restored.

// checkpointMagic identifies checkpoint files ("2LDG", "CKP", version 1).
var checkpointMagic = [8]byte{'2', 'L', 'D', 'G', 'C', 'K', 'P', 1}

// Errors of the on-disk state.
var (
	ErrBadCheckpoint = errors.New("ledger: malformed checkpoint")
	ErrBadSegment    = errors.New("ledger: malformed segment")
	ErrWrongOwner    = errors.New("ledger: data belongs to another node")
)

// segmentMark is what a checkpoint records of its owner's segment: the
// committed prefix, in block records and bytes, and the header hash of
// the newest block in it.
type segmentMark struct {
	records uint32
	size    int64
	last    digest.Digest
}

// checkpoint is one owner's state as the branch table addresses it.
// recapped says a decoded one holds its H_i under another trust cap than
// the file records (RecoverOptions.TrustCap): st is not the file's own.
type checkpoint struct {
	st       *NodeState
	seg      segmentMark
	recapped bool
}

// branch is one row of the checkpoint table: put appends its file
// encoding, get reads it back into a checkpoint under construction, sum
// appends its digest form.
type branch struct {
	name string
	put  func(dst []byte, cp *checkpoint) []byte
	get  func(r *cursor, cp *checkpoint, opts RecoverOptions) error
	sum  func(dst []byte, st *NodeState) []byte
}

// The checkpoint's branches, in file and digest order.
const (
	branchCap = iota
	branchBlocks
	branchTrust
	branchCache
	branchCount
)

var branches = [branchCount]branch{
	branchCap: {
		name: "trust cap",
		put:  func(dst []byte, cp *checkpoint) []byte { return appendCap(dst, cp.st) },
		get:  getCap,
		sum:  appendCap,
	},
	branchBlocks: {
		name: "S_i",
		put:  func(dst []byte, cp *checkpoint) []byte { return cp.seg.append(dst) },
		get:  func(r *cursor, cp *checkpoint, _ RecoverOptions) error { return cp.seg.read(r) },
		sum:  func(dst []byte, st *NodeState) []byte { return st.Store.appendDigest(dst) },
	},
	branchTrust: {
		name: "H_i",
		put:  func(dst []byte, cp *checkpoint) []byte { return cp.st.Trust.appendHeaders(dst) },
		get:  getTrust,
		sum:  func(dst []byte, st *NodeState) []byte { return st.Trust.appendHashes(dst) },
	},
	branchCache: {
		name: "A_i",
		put:  func(dst []byte, cp *checkpoint) []byte { return cp.st.Cache.appendEntries(dst) },
		get:  getCache,
		sum:  func(dst []byte, st *NodeState) []byte { return st.Cache.appendEntries(dst) },
	},
}

// appendCheckpoint appends cp's checkpoint file. Each structure is read
// under its own lock; a writer that does not exclude mutations relies,
// like compaction, on WAL replay being idempotent over the result.
func appendCheckpoint(dst []byte, cp *checkpoint) []byte {
	start := len(dst)
	dst = append(dst, checkpointMagic[:]...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(cp.st.Store.Owner()))
	for _, b := range branches {
		dst = b.put(dst, cp)
	}
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start:], walTable))
}

// decodeCheckpoint restores a checkpoint of opts.Owner's: the trust cap,
// H_i and A_i into a fresh state, and the segment prefix it records
// (S_i itself is the segment's to restore: readSegment). The cap in
// force is opts.TrustCap when positive, else the recorded one. With
// opts.Ring each H_i header is validated (ValidateHeader) as it is read.
func decodeCheckpoint(data []byte, opts RecoverOptions) (*checkpoint, error) {
	if len(data) < len(checkpointMagic)+4+4 {
		return nil, fmt.Errorf("%w: %d bytes", ErrBadCheckpoint, len(data))
	}
	if [8]byte(data) != checkpointMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadCheckpoint)
	}
	// The trailing CRC seals everything before it; check it before
	// trusting any length field.
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, walTable) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("%w: CRC mismatch", ErrBadCheckpoint)
	}
	if owner := identity.NodeID(binary.LittleEndian.Uint32(body[8:])); owner != opts.Owner {
		return nil, fmt.Errorf("%w: checkpoint of %v, recovering %v", ErrWrongOwner, owner, opts.Owner)
	}
	r := &cursor{buf: body, off: 12}
	cp := &checkpoint{st: NewNodeState(opts.Owner, opts.TrustCap)}
	for _, b := range branches {
		if err := b.get(r, cp, opts); err != nil {
			return nil, fmt.Errorf("%w: %s: %v", ErrBadCheckpoint, b.name, err)
		}
	}
	if n := len(r.buf) - r.off; n != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadCheckpoint, n)
	}
	return cp, nil
}

// Digest returns the canonical digest of the whole node state that the
// drivers compare across a restart: SHA-256 over the checkpoint's owner
// and branch table, each branch in its digest form — the trust cap; S_i
// as its block count and each block's header hash and body root M(body)
// (memoized at seal time, so the bodies are not hashed again); H_i as
// its insertion count, header count and each live header's hash in
// insertion order; A_i as the checkpoint holds it. A header hash covers
// every header field, the signature included, and a body root the body,
// so two states share a digest exactly when they hold the same blocks,
// headers, entries, insertion count and cap.
func (st *NodeState) Digest() digest.Digest {
	buf := make([]byte, 0, 64+64*st.Store.Len()+digest.Size*st.Trust.Len()+(4+digest.Size)*st.Cache.Len())
	buf = append(buf, checkpointMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(st.Store.Owner()))
	for _, b := range branches {
		buf = b.sum(buf, st)
	}
	return digest.Sum(buf)
}

func appendCap(dst []byte, st *NodeState) []byte {
	return binary.LittleEndian.AppendUint32(dst, uint32(st.TrustCap))
}

func getCap(r *cursor, cp *checkpoint, opts RecoverOptions) error {
	recorded, err := r.u32()
	if err != nil {
		return err
	}
	if opts.TrustCap <= 0 {
		cp.st.TrustCap = int(recorded)
		cp.st.Trust.SetCap(int(recorded))
	}
	cp.recapped = cp.st.TrustCap != int(recorded)
	return nil
}

func (m segmentMark) append(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, m.records)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(m.size))
	return append(dst, m.last[:]...)
}

func (m *segmentMark) read(r *cursor) error {
	records, err := r.u32()
	if err != nil {
		return err
	}
	size, err := r.u64()
	if err != nil {
		return err
	}
	last, err := r.take(digest.Size)
	if err != nil {
		return err
	}
	if size > 1<<62 || size < uint64(records)*(walHeaderLen+walCRCLen) || (records == 0) != (size == 0) {
		return fmt.Errorf("%d segment records in %d bytes", records, size)
	}
	m.records, m.size = records, int64(size)
	copy(m.last[:], last)
	return nil
}

// getTrust restores H_i in insertion order, validating each header
// first when opts.Ring is set. The recorded insertion count, not the
// restored Adds, is the replay horizon: it includes headers inserted
// and since evicted.
func getTrust(r *cursor, cp *checkpoint, opts RecoverOptions) error {
	inserted, err := r.u64()
	if err != nil {
		return fmt.Errorf("insertion count: %v", err)
	}
	count, err := r.u32()
	if err != nil {
		return fmt.Errorf("header count: %v", err)
	}
	if inserted > 1<<62 || inserted < uint64(count) {
		return fmt.Errorf("insertion count %d with %d headers", inserted, count)
	}
	for i := uint32(0); i < count; i++ {
		enc, err := r.framed(maxWALPayload)
		if err != nil {
			return fmt.Errorf("header %d: %v", i, err)
		}
		h, err := block.DecodeHeader(enc)
		if err != nil {
			return fmt.Errorf("header %d: %v", i, err)
		}
		if opts.Ring != nil {
			if err := opts.Params.ValidateHeader(h, opts.Ring); err != nil {
				return fmt.Errorf("header %d: %v", i, err)
			}
		}
		h.Seal()
		cp.st.Trust.Add(h)
	}
	cp.st.Trust.setInsertions(int64(inserted))
	return nil
}

func getCache(r *cursor, cp *checkpoint, _ RecoverOptions) error {
	count, err := r.u32()
	if err != nil {
		return fmt.Errorf("entry count: %v", err)
	}
	for i := uint32(0); i < count; i++ {
		p, err := r.take(4 + digest.Size)
		if err != nil {
			return fmt.Errorf("entry %d: %v", i, err)
		}
		var d digest.Digest
		copy(d[:], p[4:])
		cp.st.Cache.Update(identity.NodeID(binary.LittleEndian.Uint32(p)), d)
	}
	return nil
}

// appendFramed appends one length-prefixed record to dst: the length,
// then what enc appends after it.
func appendFramed[T any](dst []byte, enc func([]byte, T) []byte, v T) []byte {
	at := len(dst)
	dst = enc(append(dst, 0, 0, 0, 0), v)
	binary.LittleEndian.PutUint32(dst[at:], uint32(len(dst)-at-4))
	return dst
}

// cursor reads a checkpoint held in memory. take's result aliases the
// buffer; decoders copy what they keep (block.DecodeHeader copies the
// signature).
type cursor struct {
	buf []byte
	off int
}

func (r *cursor) take(n int) ([]byte, error) {
	if n < 0 || len(r.buf)-r.off < n {
		return nil, io.ErrUnexpectedEOF
	}
	p := r.buf[r.off : r.off+n]
	r.off += n
	return p, nil
}

func (r *cursor) u32() (uint32, error) {
	p, err := r.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(p), nil
}

func (r *cursor) u64() (uint64, error) {
	p, err := r.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(p), nil
}

func (r *cursor) framed(limit uint32) ([]byte, error) {
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if n > limit {
		return nil, fmt.Errorf("record size %d exceeds limit %d", n, limit)
	}
	return r.take(int(n))
}

// readSegment restores the segment prefix cp records into cp.st's empty
// S_i: exactly cp.seg.records block records of opts.Owner's, in
// sequence from 0, the newest hashing to cp.seg.last, read from r
// through one reused record buffer — the segment is never held whole,
// and nothing past the prefix is read. Each block is sealed from that
// buffer, and what S_i keeps of it once the segment holds it (its
// header hash, body root and record end) taken, before its body goes
// with the buffer. The scan does the decoding and structural checks
// and queues each block's authentication on a recoverVerifier; the
// blocks enter the store only once all of it has passed, and the
// store then lets go of all of them but the newest (Store.segmented),
// reading them back from r on demand (Store.readBlocksFrom).
func readSegment(r io.ReaderAt, cp *checkpoint, opts RecoverOptions) error {
	mark := cp.seg
	verify := recoverVerifier{opts: opts}
	src := bufio.NewReaderSize(io.NewSectionReader(r, 0, mark.size), 64<<10)
	var buf []byte
	var end, dropped int64
	// Sized from the checkpoint's count, which its CRC vouches for but
	// nothing yet holds to the file: a hostile one costs at most this.
	recs := make([]keptBlock, 0, min(mark.records, 1<<16))
	// The scan stops at its first error, but queued verification has not
	// run yet: a failing block before that point outranks it.
	var scanErr error
	for i := 0; ; i++ {
		var rec walRecord
		var err error
		rec, buf, err = readRecord(src, buf)
		if err == io.EOF {
			break
		}
		if err != nil {
			scanErr = fmt.Errorf("%w: record %d: %v", ErrBadSegment, i, err)
			break
		}
		if rec.kind != walKindBlock {
			scanErr = fmt.Errorf("%w: record %d of kind %d", ErrBadSegment, i, rec.kind)
			break
		}
		b, err := block.DecodeOwned(rec.payload)
		if err != nil {
			scanErr = fmt.Errorf("%w: block %d: %v", ErrBadSegment, i, err)
			break
		}
		if b.Header.Origin != opts.Owner {
			scanErr = fmt.Errorf("%w: segment block %d origin %v", ErrWrongOwner, i, b.Header.Origin)
			break
		}
		// The body aliases buf, which the next record overwrites: seal it
		// and take what S_i keeps now, then let it go.
		if err := opts.Params.SealBlock(b); err != nil {
			scanErr = fmt.Errorf("%w: block %d: %v", ErrBadSegment, i, err)
			break
		}
		end += int64(len(buf))
		recs = append(recs, keep(b, end))
		dropped += int64(len(b.Body))
		b.Body = nil
		// Queue before the sequence check: a block that fails both has
		// its verification failure reported, as a pass that sealed and
		// validated each block before appending it would.
		verify.add(b, i)
		if int64(b.Header.Seq) != int64(i) {
			scanErr = fmt.Errorf("%w: block %d: %w: seq %d, want %d", ErrBadSegment, i, ErrBadSeq, b.Header.Seq, i)
			break
		}
	}
	if n := len(verify.blocks); scanErr == nil && n != int(mark.records) {
		scanErr = fmt.Errorf("%w: %d blocks in the %d bytes its checkpoint records %d in", ErrBadSegment, n, mark.size, mark.records)
	} else if scanErr == nil && n > 0 && verify.blocks[n-1].Header.Hash() != mark.last {
		scanErr = fmt.Errorf("%w: block %d is not the newest block its checkpoint records", ErrBadSegment, n-1)
	}
	if err := verify.run(func(i int, err error) error {
		return fmt.Errorf("%w: block %d: %v", ErrBadSegment, i, err)
	}); err != nil {
		return err
	}
	if scanErr != nil {
		return scanErr
	}
	s := cp.st.Store
	s.blocks = make([]*block.Block, 0, len(verify.blocks)) // s is not shared yet
	for i, b := range verify.blocks {
		if err := s.Append(b); err != nil {
			return fmt.Errorf("%w: block %d: %v", ErrBadSegment, i, err)
		}
	}
	s.bodyBytes += dropped // Append counted none of the bodies let go
	s.readBlocksFrom(r)
	s.segmented(recs)
	return nil
}

// readRecord reads the record at the head of r into buf, grown as
// needed, and decodes it with scanWALRecord. A clean end of r is
// io.EOF; an end inside a record, io.ErrUnexpectedEOF.
func readRecord(r io.Reader, buf []byte) (walRecord, []byte, error) {
	buf = slices.Grow(buf[:0], walHeaderLen)[:walHeaderLen]
	if _, err := io.ReadFull(r, buf); err != nil {
		return walRecord{}, buf, err
	}
	size := binary.LittleEndian.Uint32(buf[1:])
	if size > maxWALPayload {
		return walRecord{}, buf, fmt.Errorf("%w: payload size %d", ErrBadWALRecord, size)
	}
	total := walHeaderLen + int(size) + walCRCLen
	buf = slices.Grow(buf, total-walHeaderLen)[:total]
	if _, err := io.ReadFull(r, buf[walHeaderLen:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return walRecord{}, buf, err
	}
	rec, _, err := scanWALRecord(buf)
	return rec, buf, err
}
