package faults

import (
	"fmt"
	"time"
)

// RetryPolicy bounds re-transmission of announcement frames and PoP
// requests: exponential backoff from BaseDelay, capped at MaxDelay,
// with deterministic jitter. The zero value disables retries entirely
// — the protocol's baseline behavior, where announcement loss is
// tolerated (neighbors pick up the next digest) and a PoP timeout
// moves the validator to another candidate.
//
// Retries are only safe because receive is idempotent: every
// announcement ingest dedups on the digest before it touches A_i, and
// PoP requests are read-only with per-call correlation IDs, so a
// duplicated or re-sent frame can never corrupt A_i.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries including the first;
	// values below 2 disable retries.
	MaxAttempts int
	// BaseDelay is the wait before the second attempt; attempt k waits
	// BaseDelay << (k-1), capped at MaxDelay.
	BaseDelay time.Duration
	// MaxDelay caps the backoff (0 = uncapped).
	MaxDelay time.Duration
	// Jitter is the fraction of each backoff drawn uniformly at random
	// in [0, 1]: wait = backoff × (1 − Jitter + Jitter·u). Jitter is
	// deterministic in (Seed, key, attempt), so identical runs back off
	// identically.
	Jitter float64
	// Seed anchors the jitter stream.
	Seed int64
}

// DefaultRetryPolicy is a sane starting point for lossy deployments:
// four attempts backing off 20ms → 40ms → 80ms with half-width jitter.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, BaseDelay: 20 * time.Millisecond, MaxDelay: 250 * time.Millisecond, Jitter: 0.5}
}

// Enabled reports whether the policy retries at all.
func (p RetryPolicy) Enabled() bool { return p.MaxAttempts > 1 }

// Validate checks the policy's parameters.
func (p RetryPolicy) Validate() error {
	if !p.Enabled() {
		return nil
	}
	if p.BaseDelay <= 0 {
		return fmt.Errorf("faults: retry BaseDelay %v must be positive", p.BaseDelay)
	}
	if p.MaxDelay < 0 {
		return fmt.Errorf("faults: negative retry MaxDelay %v", p.MaxDelay)
	}
	if p.Jitter < 0 || p.Jitter > 1 {
		return fmt.Errorf("faults: retry Jitter %v outside [0, 1]", p.Jitter)
	}
	return nil
}

// Backoff returns the wait before attempt number attempt (counting
// from 2; attempt 1 is the initial try and never waits). key
// distinguishes concurrent retry streams — e.g. a digest prefix or the
// peer ID — so their jitters decorrelate.
func (p RetryPolicy) Backoff(attempt int, key uint64) time.Duration {
	if attempt < 2 || !p.Enabled() {
		return 0
	}
	d := p.BaseDelay
	for i := 2; i < attempt; i++ {
		d *= 2
		if p.MaxDelay > 0 && d >= p.MaxDelay {
			d = p.MaxDelay
			break
		}
	}
	if p.MaxDelay > 0 && d > p.MaxDelay {
		d = p.MaxDelay
	}
	if p.Jitter > 0 {
		st := frameStream(p.Seed, 0, 0, key^uint64(attempt)<<56)
		u := st.float()
		d = time.Duration(float64(d) * (1 - p.Jitter + p.Jitter*u))
	}
	return d
}
