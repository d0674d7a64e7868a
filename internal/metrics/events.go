package metrics

import (
	"fmt"
	"io"
	"sync/atomic"

	"github.com/twoldag/twoldag/internal/events"
)

// EventCounters aggregates the typed event stream (internal/events)
// into atomic counters. It replaces the ad-hoc per-driver tallies the
// simulator and the experiment harness used to keep: both drivers emit
// the same events, so one counter type serves every deployment shape.
// All methods are safe for concurrent use from parallel generation
// and audit phases; because atomic addition is commutative the final
// totals are independent of scheduling order, which keeps
// deterministic-simulator reports reproducible under any GOMAXPROCS.
type EventCounters struct {
	blocksSealed     atomic.Int64
	digestsAnnounced atomic.Int64
	digestBatches    atomic.Int64
	auditHops        atomic.Int64
	consensusReached atomic.Int64
	auditsFailed     atomic.Int64
	messagesDropped  atomic.Int64
	retriesAttempted atomic.Int64
	peersSuspected   atomic.Int64
	peersRecovered   atomic.Int64

	// Durable-path counters, fed by the ledger's group-commit writer
	// through OnWALCommit (ledger.CommitObserver, implemented
	// structurally so this package stays ledger-free). The window
	// histogram makes fsync amortization visible on a scrape: a
	// process hosting many devices, one staged round per window, shows
	// mass in the high buckets, while a single-device `serve` process,
	// one window per seal, pins everything at le="1".
	walFsyncs     atomic.Int64
	walBytes      atomic.Int64
	walWindowSum  atomic.Int64
	walWindowBkts [len(walWindowBounds) + 1]atomic.Int64
}

// walWindowBounds are the upper bounds (inclusive, in blocks) of the
// commit-window histogram buckets; an implicit +Inf bucket follows.
var walWindowBounds = [...]int64{1, 2, 4, 8, 16, 32, 64}

var _ events.Observer = (*EventCounters)(nil)

// OnBlockSealed implements events.Observer.
func (c *EventCounters) OnBlockSealed(events.BlockSealed) { c.blocksSealed.Add(1) }

// OnDigestBatchDelivered implements events.Observer: one batch counts
// as one flush and len(Digests) accepted deliveries, so
// DigestsAnnounced counts digests, not frames.
func (c *EventCounters) OnDigestBatchDelivered(e events.DigestBatchDelivered) {
	c.digestBatches.Add(1)
	c.digestsAnnounced.Add(int64(len(e.Digests)))
}

// OnAuditHop implements events.Observer.
func (c *EventCounters) OnAuditHop(events.AuditHop) { c.auditHops.Add(1) }

// OnConsensusReached implements events.Observer.
func (c *EventCounters) OnConsensusReached(events.ConsensusReached) { c.consensusReached.Add(1) }

// OnAuditFailed implements events.Observer.
func (c *EventCounters) OnAuditFailed(events.AuditFailed) { c.auditsFailed.Add(1) }

// OnMessageDropped implements events.Observer.
func (c *EventCounters) OnMessageDropped(events.MessageDropped) { c.messagesDropped.Add(1) }

// OnRetryAttempted implements events.Observer.
func (c *EventCounters) OnRetryAttempted(events.RetryAttempted) { c.retriesAttempted.Add(1) }

// OnPeerSuspected implements events.Observer.
func (c *EventCounters) OnPeerSuspected(events.PeerSuspected) { c.peersSuspected.Add(1) }

// OnPeerRecovered implements events.Observer.
func (c *EventCounters) OnPeerRecovered(events.PeerRecovered) { c.peersRecovered.Add(1) }

// OnWALCommit records one durable commit window: a single fsync that
// acknowledged blocks block records totalling bytes on-disk WAL bytes.
// It structurally implements ledger.CommitObserver, so an
// *EventCounters passed as a driver observer also receives the
// backend's commit stream.
func (c *EventCounters) OnWALCommit(blocks int, bytes int64) {
	c.walFsyncs.Add(1)
	c.walBytes.Add(bytes)
	c.walWindowSum.Add(int64(blocks))
	i := 0
	for i < len(walWindowBounds) && int64(blocks) > walWindowBounds[i] {
		i++
	}
	c.walWindowBkts[i].Add(1)
}

// BlocksSealed returns the number of BlockSealed events observed.
func (c *EventCounters) BlocksSealed() int64 { return c.blocksSealed.Load() }

// DigestsAnnounced returns the number of accepted digest deliveries.
func (c *EventCounters) DigestsAnnounced() int64 { return c.digestsAnnounced.Load() }

// AuditHops returns the number of REQ_CHILD probes observed.
func (c *EventCounters) AuditHops() int64 { return c.auditHops.Load() }

// ConsensusReached returns the number of successful audits.
func (c *EventCounters) ConsensusReached() int64 { return c.consensusReached.Load() }

// AuditsFailed returns the number of audits that ended without
// consensus.
func (c *EventCounters) AuditsFailed() int64 { return c.auditsFailed.Load() }

// DigestBatchesDelivered returns the number of batched announcement
// flushes ingested (one per receiver per flush).
func (c *EventCounters) DigestBatchesDelivered() int64 { return c.digestBatches.Load() }

// Audits returns the total number of completed audits, successful or
// not.
func (c *EventCounters) Audits() int64 { return c.consensusReached.Load() + c.auditsFailed.Load() }

// MessagesDropped returns the number of observed frame losses
// (backpressure, unreachable peers, injected faults).
func (c *EventCounters) MessagesDropped() int64 { return c.messagesDropped.Load() }

// RetriesAttempted returns the number of re-issued announcement frames
// and PoP requests (first attempts are not retries).
func (c *EventCounters) RetriesAttempted() int64 { return c.retriesAttempted.Load() }

// PeersSuspected returns the number of circuit-breaker openings
// (consecutive transport failures crossing the suspicion threshold).
func (c *EventCounters) PeersSuspected() int64 { return c.peersSuspected.Load() }

// PeersRecovered returns the number of successful recovery probes
// re-admitting a suspected peer.
func (c *EventCounters) PeersRecovered() int64 { return c.peersRecovered.Load() }

// WALFsyncs returns the number of durable commit windows (one fsync
// each) the ledger backend has completed.
func (c *EventCounters) WALFsyncs() int64 { return c.walFsyncs.Load() }

// WALBytesWritten returns the total WAL bytes made durable across all
// commit windows.
func (c *EventCounters) WALBytesWritten() int64 { return c.walBytes.Load() }

// WritePrometheus writes the counters in the Prometheus text
// exposition format (version 0.0.4), making the typed observer stream
// scrapeable: point a collector at any io.Writer-backed endpoint and
// the same counters that drive simulator reports become dashboards.
// Safe for concurrent use with event ingestion; each counter is read
// atomically (the set of counters is not a consistent snapshot, as
// usual for Prometheus scrapes).
func (c *EventCounters) WritePrometheus(w io.Writer) error {
	for _, m := range []struct {
		name, help string
		value      int64
	}{
		{"twoldag_blocks_sealed_total", "Blocks sealed (mined, signed, appended) across the deployment.", c.BlocksSealed()},
		{"twoldag_digests_announced_total", "Digest announcements accepted into neighbor caches (receiver side).", c.DigestsAnnounced()},
		{"twoldag_digest_batches_delivered_total", "Batched announcement flushes ingested (one per receiver per flush).", c.DigestBatchesDelivered()},
		{"twoldag_audit_hops_total", "REQ_CHILD probes issued by PoP validators.", c.AuditHops()},
		{"twoldag_consensus_reached_total", "Audits that collected gamma+1 distinct vouchers.", c.ConsensusReached()},
		{"twoldag_audits_failed_total", "Audits that ended without consensus.", c.AuditsFailed()},
		{"twoldag_messages_dropped_total", "Frames lost to backpressure, unreachable peers or injected faults.", c.MessagesDropped()},
		{"twoldag_retries_attempted_total", "Announcement frames and PoP requests re-issued after a failed attempt.", c.RetriesAttempted()},
		{"twoldag_peers_suspected_total", "Circuit-breaker openings after consecutive transport failures.", c.PeersSuspected()},
		{"twoldag_peers_recovered_total", "Recovery probes that re-admitted a suspected peer.", c.PeersRecovered()},
		{"twoldag_wal_fsyncs_total", "Durable WAL commit windows completed (one fsync each).", c.WALFsyncs()},
		{"twoldag_wal_bytes_written_total", "WAL bytes made durable across all commit windows.", c.WALBytesWritten()},
	} {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n",
			m.name, m.help, m.name, m.name, m.value); err != nil {
			return err
		}
	}

	// Commit-window size histogram: cumulative buckets per the
	// exposition format, so le="+Inf" equals _count and _sum divided
	// by _count is the mean blocks amortized per fsync.
	const hn = "twoldag_wal_commit_window_blocks"
	if _, err := fmt.Fprintf(w, "# HELP %s Block records acknowledged per WAL commit window.\n# TYPE %s histogram\n", hn, hn); err != nil {
		return err
	}
	cum := int64(0)
	for i, bound := range walWindowBounds {
		cum += c.walWindowBkts[i].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", hn, bound, cum); err != nil {
			return err
		}
	}
	cum += c.walWindowBkts[len(walWindowBounds)].Load()
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n",
		hn, cum, hn, c.walWindowSum.Load(), hn, cum); err != nil {
		return err
	}
	return nil
}
