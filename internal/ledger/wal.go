package ledger

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/identity"
)

// Write-ahead-log record codec. One record per durable mutation, in a
// compact fixed-layout binary encoding:
//
//	kind    uint8      — walKindBlock | walKindTrust | walKindDigest
//	length  uint32 LE  — payload byte count
//	payload [length]   — see the per-kind layouts below
//	crc     uint32 LE  — CRC-32C over kind, length, and payload
//
// The CRC closes each record, so a torn tail — a crash mid-write
// leaves a prefix of the final record — is detected and the log is
// readable up to the last complete record. Replay treats exactly that
// as the recovery point (see replayWAL); everything before a torn or
// corrupt record is state the node durably owned.
//
// A log serves every device of its process (see Log), so each record
// says whose it is. A block record already does — its header opens
// with the origin — so it is written untagged; every other kind is
// written with walOwnerTag set and the owner's ID (uint32 LE) ahead of
// the payload above. The tag is a fixed four bytes on every such
// record, never a marker between records, so what a log holds does not
// depend on the order its owners wrote in. Earlier builds wrote a
// one-device dir's trust, digest and forget records untagged; the log
// refuses a generation holding one as it opens (OpenLog).

// WAL record kinds.
const (
	walKindBlock  = 1 // payload: block.Encode(b)
	walKindTrust  = 2 // payload: insertion index uint64 LE + block.AppendEncodeHeader(nil, h)
	walKindDigest = 3 // payload: sender uint32 LE + digest [digest.Size]byte
	walKindForget = 4 // payload: sender uint32 LE
)

// walOwnerTag, set in a record's kind, says the payload opens with the
// walOwnerLen bytes of the owning node's ID.
const (
	walOwnerTag = 0x80
	walOwnerLen = 4
)

// walTrustPrefix is the insertion-index prefix of a trust payload.
const walTrustPrefix = 8

// walHeaderLen is kind + length; walCRCLen trails every record.
const (
	walHeaderLen = 1 + 4
	walCRCLen    = 4
)

// maxWALPayload bounds one record payload (and one checkpoint header):
// a block record's, which dominates the header and digest payloads.
const maxWALPayload = block.MaxBodyLen + 1<<20

// walTable is the CRC-32C (Castagnoli) table; hardware-accelerated on
// every platform Go supports.
var walTable = crc32.MakeTable(crc32.Castagnoli)

// ErrBadWALRecord marks a structurally invalid record during replay —
// reported with the byte offset so operators can see how much of a
// damaged log was recoverable.
var ErrBadWALRecord = errors.New("ledger: malformed WAL record")

// appendWALRecord appends one framed record to dst and returns the
// extended slice.
func appendWALRecord(dst []byte, kind byte, payload []byte) []byte {
	start := len(dst)
	dst = append(dst, kind)
	var lenBuf [4]byte
	binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(payload)))
	dst = append(dst, lenBuf[:]...)
	dst = append(dst, payload...)
	crc := crc32.Checksum(dst[start:], walTable)
	binary.LittleEndian.PutUint32(lenBuf[:], crc)
	return append(dst, lenBuf[:]...)
}

// appendWALTrust appends a trust record payload: the header's lifetime
// insertion index in H_i followed by its encoding. The index lets
// replay skip Adds the checkpoint already accounts for — re-adding a
// header a capped store had since evicted would evict a different live
// header and break byte-identical recovery.
func appendWALTrust(dst []byte, inserted int64, h *block.Header) []byte {
	var idx [walTrustPrefix]byte
	binary.LittleEndian.PutUint64(idx[:], uint64(inserted))
	dst = append(dst, idx[:]...)
	return block.AppendEncodeHeader(dst, h)
}

// appendWALDigest appends a digest-cache record payload.
func appendWALDigest(dst []byte, from identity.NodeID, d digest.Digest) []byte {
	var node [4]byte
	binary.LittleEndian.PutUint32(node[:], uint32(from))
	dst = append(dst, node[:]...)
	return append(dst, d[:]...)
}

// walRecord is one decoded WAL record.
type walRecord struct {
	kind    byte
	payload []byte // aliases the input buffer
}

// owner names the node r belongs to when the record says so itself: by
// its tag, or by the origin of the block it carries.
func (r walRecord) owner() (identity.NodeID, bool) {
	switch {
	case r.kind&walOwnerTag != 0:
		if len(r.payload) < walOwnerLen {
			return 0, false
		}
		return identity.NodeID(binary.LittleEndian.Uint32(r.payload)), true
	case r.kind == walKindBlock:
		return block.EncodedOrigin(r.payload)
	}
	return 0, false
}

// scanWALRecord decodes the record at the head of buf. It returns the
// record, the number of bytes consumed, and an error. A clean torn
// tail (buf is a proper prefix of a record: too short, or the CRC
// bytes themselves are incomplete) returns io.ErrUnexpectedEOF; a CRC
// mismatch or oversized length returns ErrBadWALRecord. Empty input
// returns io.EOF.
func scanWALRecord(buf []byte) (walRecord, int, error) {
	if len(buf) == 0 {
		return walRecord{}, 0, io.EOF
	}
	if len(buf) < walHeaderLen {
		return walRecord{}, 0, io.ErrUnexpectedEOF
	}
	size := binary.LittleEndian.Uint32(buf[1:walHeaderLen])
	if size > maxWALPayload {
		return walRecord{}, 0, fmt.Errorf("%w: payload size %d", ErrBadWALRecord, size)
	}
	total := walHeaderLen + int(size) + walCRCLen
	if len(buf) < total {
		return walRecord{}, 0, io.ErrUnexpectedEOF
	}
	body := buf[:walHeaderLen+int(size)]
	want := binary.LittleEndian.Uint32(buf[walHeaderLen+int(size) : total])
	if crc32.Checksum(body, walTable) != want {
		return walRecord{}, 0, fmt.Errorf("%w: CRC mismatch", ErrBadWALRecord)
	}
	return walRecord{kind: buf[0], payload: body[walHeaderLen:]}, total, nil
}

// walReplayStats reports what one log contributed during recovery.
type walReplayStats struct {
	// valid is the byte length of the intact record prefix — the
	// offset a torn log may safely be truncated to.
	valid int
	// torn reports whether the log ended in an incomplete or corrupt
	// record that was discarded.
	torn bool
	// blocks counts block records applied (not skipped as duplicates).
	blocks int
	// owned counts the records of the recovering owner's read, applied
	// or skipped as already held.
	owned int
}

// replayWAL applies every intact record in buf to st. With allowTorn
// set it stops silently at the first torn or corrupt record (a crash
// mid-write is the expected way for the *current* WAL generation to
// end); without it a torn record fails recovery — a rotated generation
// (wal.old) is synced and repaired before rotation, so damage there is
// real corruption, and tolerating it would silently drop every record
// after it. Records replay idempotently — blocks already present
// (sequence below the log length) are skipped, trust records below the
// store's insertion horizon are skipped, digest upserts are
// latest-wins — so a WAL generation that overlaps the checkpoint and
// segment it preceded is harmless. Records of another owner are passed
// over: a backend replays its owner's records and nobody else's.
//
// buf is the whole generation gen is a read handle on (nil for none):
// each block it restores, the store keeps as a span of its record there
// (Store.append), its body let go.
//
// Blocks are re-sealed through opts.Params.SealBlock and, when
// opts.Ring is set, authenticated as one chain linked to the store's
// newest block — falling back to opts.Params.Validate of each — before
// they re-enter the store: this scan queues that work on a
// recoverVerifier. With a Ring every trust header applied is validated
// (opts.Params.ValidateHeader) as it is read. Structural violations
// that cannot come from a torn write — a record naming no owner, a
// sequence gap — fail recovery rather than truncate it.
func replayWAL(st *NodeState, buf []byte, opts RecoverOptions, allowTorn bool, gen *os.File) (walReplayStats, error) {
	var stats walReplayStats
	verify := recoverVerifier{opts: opts}
	if last := st.Store.Latest(); last != nil {
		verify.prev = &last.Header
	}
	// have is the store length as if queued blocks were already
	// appended, so the duplicate/gap checks see what the serial,
	// append-as-you-go loop saw.
	have := st.Store.Len()
	off := 0
	var ends []int // each queued block's record end; verify.labels has its start
	// The scan stops at its first error, like the serial loop — but
	// queued verification hasn't run yet, so the error is only recorded
	// here; a verification failure at an earlier position outranks it.
	var scanErr error
scan:
	for {
		rec, n, err := scanWALRecord(buf[off:])
		if err == io.EOF {
			break
		}
		if err != nil {
			// Torn or corrupt tail: the intact prefix is the durable
			// state; the rest never finished writing.
			stats.torn = true
			if !allowTorn {
				scanErr = fmt.Errorf("%w: record at offset %d in a rotated generation: %v", ErrBadWALRecord, off, err)
			}
			break
		}
		kind, payload := rec.kind, rec.payload
		owner, named := rec.owner()
		if !named {
			scanErr = fmt.Errorf("%w: record of kind %d at offset %d names no owner", ErrBadWALRecord, kind, off)
			break scan
		}
		if owner != opts.Owner {
			off += n
			stats.valid = off
			continue
		}
		stats.owned++
		if kind&walOwnerTag != 0 {
			kind, payload = kind&^walOwnerTag, payload[walOwnerLen:]
		}
		switch kind {
		case walKindBlock:
			b, err := block.Decode(payload)
			if err != nil {
				scanErr = fmt.Errorf("%w: block at offset %d: %v", ErrBadWALRecord, off, err)
				break scan
			}
			switch seq := int(b.Header.Seq); {
			case seq < have:
				// Already restored from the segment (or an earlier WAL
				// generation): the record predates the last compaction.
			case seq > have:
				scanErr = fmt.Errorf("%w: block at offset %d seq %d, store has %d", ErrBadWALRecord, off, seq, have)
				break scan
			default:
				verify.add(b, off)
				ends = append(ends, off+n)
				have++
			}
		case walKindTrust:
			if len(payload) < walTrustPrefix {
				scanErr = fmt.Errorf("%w: trust record at offset %d: %d bytes", ErrBadWALRecord, off, len(payload))
				break scan
			}
			idx := int64(binary.LittleEndian.Uint64(payload[:walTrustPrefix]))
			h, err := block.DecodeHeader(payload[walTrustPrefix:])
			if err != nil {
				scanErr = fmt.Errorf("%w: header at offset %d: %v", ErrBadWALRecord, off, err)
				break scan
			}
			// Skip insertions the checkpoint already accounts for: the
			// header may have been FIFO-evicted since, and re-adding it
			// would evict a different live header instead. At or above
			// the horizon the Add replays with the exact state it saw
			// live, so its evictions replay identically too.
			if idx >= st.Trust.Insertions() {
				if opts.Ring != nil {
					if err := opts.Params.ValidateHeader(h, opts.Ring); err != nil {
						scanErr = fmt.Errorf("%w: trust header at offset %d: %v", ErrBadWALRecord, off, err)
						break scan
					}
				}
				h.Seal()
				st.Trust.Add(h)
			}
		case walKindDigest:
			if len(payload) != 4+digest.Size {
				scanErr = fmt.Errorf("%w: digest record at offset %d: %d bytes", ErrBadWALRecord, off, len(payload))
				break scan
			}
			from := identity.NodeID(binary.LittleEndian.Uint32(payload[:4]))
			var d digest.Digest
			copy(d[:], payload[4:])
			st.Cache.Update(from, d)
		case walKindForget:
			if len(payload) != 4 {
				scanErr = fmt.Errorf("%w: forget record at offset %d: %d bytes", ErrBadWALRecord, off, len(payload))
				break scan
			}
			st.Cache.Forget(identity.NodeID(binary.LittleEndian.Uint32(payload[:4])))
		default:
			scanErr = fmt.Errorf("%w: unknown kind %d at offset %d", ErrBadWALRecord, kind, off)
			break scan
		}
		off += n
		stats.valid = off
	}
	// Every queued block precedes scanErr's position, so reporting the
	// first verification failure before scanErr reproduces the serial
	// error order exactly. (Recovery discards state and stats on error,
	// so trust/digest records applied past a failing block are moot.)
	if err := verify.run(func(off int, err error) error {
		return fmt.Errorf("%w: block at offset %d: %v", ErrBadWALRecord, off, err)
	}); err != nil {
		return stats, err
	}
	if scanErr != nil {
		return stats, scanErr
	}
	for i, b := range verify.blocks {
		var span walSpan
		if gen != nil {
			span = walSpan{gen: gen, start: int64(verify.labels[i]), end: int64(ends[i])}
		}
		if err := st.Store.append(b, span); err != nil {
			return stats, fmt.Errorf("ledger: WAL replay append: %w", err)
		}
		stats.blocks++
	}
	return stats, nil
}
