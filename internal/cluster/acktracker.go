package cluster

import (
	"context"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/events"
	"github.com/twoldag/twoldag/internal/faults"
	"github.com/twoldag/twoldag/internal/identity"
	"github.com/twoldag/twoldag/internal/node"
)

// waiter tracks one digest's outstanding neighbor acknowledgements.
type waiter struct {
	pending map[identity.NodeID]struct{}
	done    chan struct{}
}

// AckTracker is both live drivers' announce-and-await (Announce). It
// resolves each wait on the receiver-side DigestBatchDelivered events
// of every node — observed directly from in-process receivers, or
// synthesized from wire-level DigestAck frames across processes.
type AckTracker struct {
	events.Nop
	mu      sync.Mutex
	waiters map[digest.Digest]*waiter
}

// NewAckTracker builds an empty tracker.
func NewAckTracker() *AckTracker {
	return &AckTracker{waiters: make(map[digest.Digest]*waiter)}
}

// Sealed is one digest of a flush and the node that sealed it.
type Sealed struct {
	Node   *node.Node
	Digest digest.Digest
}

// Announce flushes sealed digests and blocks until each sender's live
// neighbors — neighbors(sender) — acknowledged each of its digests. It
// registers every wait, then sends each sender's digests as one
// DigestBatch frame per neighbor (node.AnnounceBatch), senders in order
// of first appearance. The waits run in the order given, or, under a
// retry policy, concurrently so every retry clock runs at once. The
// first error in that order is returned, and every wait is cancelled.
func (t *AckTracker) Announce(
	ctx context.Context,
	flush []Sealed,
	neighbors func(identity.NodeID) []identity.NodeID,
	retry faults.RetryPolicy,
	obs events.Observer,
) error {
	runs := make(map[*node.Node][]digest.Digest)
	nbs := make(map[*node.Node][]identity.NodeID)
	var senders []*node.Node
	waits := make([]*waiter, len(flush))
	for i, s := range flush {
		if _, ok := nbs[s.Node]; !ok {
			nbs[s.Node] = neighbors(s.Node.ID())
			senders = append(senders, s.Node)
		}
		runs[s.Node] = append(runs[s.Node], s.Digest)
		waits[i] = t.expect(s.Digest, nbs[s.Node])
	}
	for _, n := range senders {
		n.AnnounceBatch(ctx, runs[n])
	}
	errs := make([]error, len(flush))
	if retry.Enabled() {
		var wg sync.WaitGroup
		for i := range flush {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = t.await(ctx, flush[i], waits[i], retry, obs)
			}()
		}
		wg.Wait()
	} else {
		for i := range flush {
			if errs[i] = t.await(ctx, flush[i], waits[i], retry, obs); errs[i] != nil {
				break
			}
		}
	}
	for _, err := range errs {
		if err != nil {
			for _, s := range flush {
				t.cancel(s.Digest)
			}
			return err
		}
	}
	return nil
}

// expect registers interest in d reaching every listed neighbor,
// before d is announced so no acknowledgement can be missed.
func (t *AckTracker) expect(d digest.Digest, neighbors []identity.NodeID) *waiter {
	w := &waiter{pending: make(map[identity.NodeID]struct{}, len(neighbors)), done: make(chan struct{})}
	for _, nb := range neighbors {
		w.pending[nb] = struct{}{}
	}
	if len(w.pending) == 0 {
		close(w.done)
		return w
	}
	t.mu.Lock()
	t.waiters[d] = w
	t.mu.Unlock()
	return w
}

// OnDigestBatchDelivered implements events.Observer: one neighbor
// ingested a flush, acknowledging every digest it carried at once.
func (t *AckTracker) OnDigestBatchDelivered(e events.DigestBatchDelivered) {
	t.mu.Lock()
	for _, d := range e.Digests {
		t.resolve(d, e.To)
	}
	t.mu.Unlock()
}

// resolve marks d acknowledged by neighbor to. Callers hold t.mu.
func (t *AckTracker) resolve(d digest.Digest, to identity.NodeID) {
	if w, ok := t.waiters[d]; ok {
		delete(w.pending, to)
		if len(w.pending) == 0 {
			close(w.done)
			delete(t.waiters, d)
		}
	}
}

// Pending snapshots the neighbors that have not yet acknowledged d
// (nil once the wait resolved), sorted for reproducible retry
// fan-out.
func (t *AckTracker) Pending(d digest.Digest) []identity.NodeID {
	t.mu.Lock()
	defer t.mu.Unlock()
	w, ok := t.waiters[d]
	if !ok {
		return nil
	}
	out := make([]identity.NodeID, 0, len(w.pending))
	for id := range w.pending {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// cancel abandons d's wait and reports which neighbors never
// acknowledged (empty when the wait actually completed).
func (t *AckTracker) cancel(d digest.Digest) []identity.NodeID {
	t.mu.Lock()
	defer t.mu.Unlock()
	w, ok := t.waiters[d]
	if !ok {
		return nil
	}
	delete(t.waiters, d)
	missing := make([]identity.NodeID, 0, len(w.pending))
	for id := range w.pending {
		missing = append(missing, id)
	}
	return missing
}

// await blocks until every expected neighbor acknowledged s's digest
// or ctx expires, naming the missing neighbors. Under a retry policy it
// re-sends the digest to the still-pending neighbors (node.AnnounceTo)
// after each exponential backoff, up to MaxAttempts rounds in all; obs,
// when non-nil, sees each RetryAttempted. A loss-free run sends exactly
// one frame per link.
func (t *AckTracker) await(ctx context.Context, s Sealed, w *waiter, retry faults.RetryPolicy, obs events.Observer) error {
	key := binary.LittleEndian.Uint64(s.Digest[:8])
	for attempt := 2; attempt <= retry.MaxAttempts && ctx.Err() == nil; attempt++ {
		timer := time.NewTimer(retry.Backoff(attempt, key))
		select {
		case <-w.done:
			timer.Stop()
			return nil
		case <-ctx.Done():
			timer.Stop()
			continue
		case <-timer.C:
		}
		for _, nb := range t.Pending(s.Digest) {
			if obs != nil {
				obs.OnRetryAttempted(events.RetryAttempted{
					Node: s.Node.ID(), Peer: nb, Announce: true, Attempt: attempt,
				})
			}
			s.Node.AnnounceTo(ctx, nb, s.Digest)
		}
	}
	select {
	case <-w.done:
		return nil
	case <-ctx.Done():
		missing := t.cancel(s.Digest)
		if len(missing) == 0 {
			return nil // acknowledged in the same instant
		}
		return fmt.Errorf("cluster: digest %s from %v unacknowledged by %v: %w", s.Digest, s.Node.ID(), missing, ctx.Err())
	}
}
