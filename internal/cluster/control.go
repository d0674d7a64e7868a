package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/identity"
)

// The control protocol drives a serving host over its stdio: one JSON
// object per line in, one per line out, strictly request/response
// after an initial ready event. It exists for harnesses — the e2e
// suite and scripted drivers — so waits are ack-driven end to end: a
// response to flush means every live neighbor acknowledged, a response
// to audit carries the consensus verdict.

// ControlRef is a block reference on the wire.
type ControlRef struct {
	Node uint32 `json:"node"`
	Seq  uint32 `json:"seq"`
}

// ControlRequest is one driver command.
//
// Ops: "slot" (set logical time), "seal" (mine one block from Data),
// "flush" (announce sealed Digests and await acks), "submit"
// (seal+flush one block), "audit" (PoP from this node against Ref),
// "silence" (mark Node dead locally), "info" (identity, address,
// live members), "latest" (ref + digest of the newest own block —
// what a restarted node re-flushes), "state" (canonical digest over
// the whole ledger state, for crash-recovery equivalence checks),
// "compact" (force a WAL compaction), "metrics" (the host's event
// counters in the Prometheus text format, when its Config.Observer
// writes them), "leave" (graceful shutdown; final response, then the
// loop ends).
type ControlRequest struct {
	Op      string      `json:"op"`
	Slot    uint32      `json:"slot,omitempty"`
	Data    []byte      `json:"data,omitempty"`
	Digests []string    `json:"digests,omitempty"`
	Node    uint32      `json:"node,omitempty"`
	Ref     *ControlRef `json:"ref,omitempty"`
}

// ControlResponse answers one request.
type ControlResponse struct {
	OK        bool        `json:"ok"`
	Err       string      `json:"err,omitempty"`
	ID        uint32      `json:"id,omitempty"`
	Addr      string      `json:"addr,omitempty"`
	Ref       *ControlRef `json:"ref,omitempty"`
	Digest    string      `json:"digest,omitempty"` // sealed header hash
	Consensus *bool       `json:"consensus,omitempty"`
	Vouchers  int         `json:"vouchers,omitempty"`
	Live      []uint32    `json:"live,omitempty"`
	Metrics   string      `json:"metrics,omitempty"` // Prometheus text exposition
}

// ControlReady is the single event line a host emits once it serves.
type ControlReady struct {
	Event string `json:"event"` // "ready"
	ID    uint32 `json:"id"`
	Addr  string `json:"addr"`
}

// maxControlLine bounds one request line. It fits a seal of the longest
// body block.Params.Build accepts, which JSON carries as base64, plus
// room for the rest of the object.
var maxControlLine = base64.StdEncoding.EncodedLen(block.MaxBodyLen) + 1<<16

// ServeControl runs the request/response loop for h over (r, w) until
// a leave op, EOF, or ctx cancellation, then closes the host. The
// driver owns pacing: every response is written (and flushed) before
// the next request is read, so zero polling is ever needed on either
// side. A line longer than maxControlLine is a bad request like any
// other, and the loop serves the line after it.
func ServeControl(ctx context.Context, h *Host, r io.Reader, w io.Writer) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(ControlReady{Event: "ready", ID: uint32(h.ID()), Addr: h.Addr()}); err != nil {
		_ = h.Close()
		return err
	}
	br := bufio.NewReaderSize(r, 1<<16)
	var line []byte
	var err error
	for {
		var tooLong bool
		if line, tooLong, err = readControlLine(br, line[:0]); err != nil || ctx.Err() != nil {
			break
		}
		var resp ControlResponse
		leave := false
		switch {
		case tooLong:
			resp.Err = fmt.Sprintf("bad request: line longer than %d bytes", maxControlLine)
		case len(line) == 0:
			continue
		default:
			var req ControlRequest
			if err := json.Unmarshal(line, &req); err != nil {
				resp.Err = fmt.Sprintf("bad request: %v", err)
			} else {
				resp, leave = execControl(ctx, h, &req)
			}
		}
		if err := enc.Encode(resp); err != nil {
			break
		}
		if leave {
			return h.Close()
		}
	}
	_ = h.Close()
	if err == io.EOF {
		return nil
	}
	return err
}

// readControlLine appends the next line of br to buf, without its "\n"
// or "\r\n" ending, as bufio.ScanLines splits lines. A line of more
// than maxControlLine bytes, its newline counted, is read through and
// dropped: tooLong reports it. err is io.EOF only once br holds no byte
// of another line.
func readControlLine(br *bufio.Reader, buf []byte) (line []byte, tooLong bool, err error) {
	for line = buf; ; {
		frag, err := br.ReadSlice('\n')
		if tooLong = tooLong || len(line)+len(frag) > maxControlLine; !tooLong {
			line = append(line, frag...)
		}
		if err == nil || (err == io.EOF && (len(line) > 0 || tooLong)) {
			return bytes.TrimSuffix(bytes.TrimSuffix(line, []byte("\n")), []byte("\r")), tooLong, nil
		}
		if err != bufio.ErrBufferFull {
			return nil, false, err
		}
	}
}

// blockResponse reports one of the device's blocks: its ref and header
// digest.
func blockResponse(ref block.Ref, d digest.Digest) ControlResponse {
	return ControlResponse{OK: true, Ref: &ControlRef{Node: uint32(ref.Node), Seq: ref.Seq}, Digest: d.Hex()}
}

// execControl dispatches one request.
func execControl(ctx context.Context, h *Host, req *ControlRequest) (ControlResponse, bool) {
	fail := func(err error) ControlResponse { return ControlResponse{Err: err.Error()} }
	switch req.Op {
	case "slot":
		h.SetSlot(req.Slot)
		return ControlResponse{OK: true}, false
	case "seal":
		ref, d, err := h.Seal(req.Data)
		if err != nil {
			return fail(err), false
		}
		return blockResponse(ref, d), false
	case "flush":
		ds := make([]digest.Digest, 0, len(req.Digests))
		for _, hex := range req.Digests {
			d, err := digest.FromHex(hex)
			if err != nil {
				return fail(fmt.Errorf("bad digest %q: %w", hex, err)), false
			}
			ds = append(ds, d)
		}
		if err := h.Flush(ctx, ds); err != nil {
			return fail(err), false
		}
		return ControlResponse{OK: true}, false
	case "submit":
		ref, d, err := h.Seal(req.Data)
		if err == nil {
			err = h.Flush(ctx, []digest.Digest{d})
		}
		if err != nil {
			return fail(err), false
		}
		return blockResponse(ref, d), false
	case "audit":
		if req.Ref == nil {
			return fail(fmt.Errorf("audit needs a ref")), false
		}
		ref := block.Ref{Node: identity.NodeID(req.Ref.Node), Seq: req.Ref.Seq}
		res, err := h.Audit(ctx, ref)
		if res == nil {
			if err == nil {
				err = fmt.Errorf("audit of %v produced no result", ref)
			}
			return fail(err), false
		}
		// A completed audit that misses consensus is a verdict, not a
		// transport failure: report it as such.
		consensus := res.Consensus
		resp := ControlResponse{OK: true, Consensus: &consensus, Vouchers: len(res.Vouchers)}
		if err != nil {
			resp.Err = err.Error()
		}
		return resp, false
	case "silence":
		h.MarkDead(identity.NodeID(req.Node))
		return ControlResponse{OK: true}, false
	case "info":
		live := h.Live()
		ids := make([]uint32, len(live))
		for i, id := range live {
			ids[i] = uint32(id)
		}
		return ControlResponse{OK: true, ID: uint32(h.ID()), Addr: h.Addr(), Live: ids}, false
	case "latest":
		ref, d, ok := h.Latest()
		if !ok {
			return fail(fmt.Errorf("store is empty")), false
		}
		return blockResponse(ref, d), false
	case "state":
		return ControlResponse{OK: true, Digest: h.StateDigest().Hex()}, false
	case "compact":
		if err := h.Compact(); err != nil {
			return fail(err), false
		}
		return ControlResponse{OK: true}, false
	case "metrics":
		m, ok := h.cfg.Observer.(interface{ WritePrometheus(io.Writer) error })
		if !ok {
			return fail(fmt.Errorf("the host keeps no counters")), false
		}
		var text strings.Builder
		if err := m.WritePrometheus(&text); err != nil {
			return fail(err), false
		}
		return ControlResponse{OK: true, Metrics: text.String()}, false
	case "leave":
		return ControlResponse{OK: true}, true
	default:
		return fail(fmt.Errorf("unknown op %q", req.Op)), false
	}
}
