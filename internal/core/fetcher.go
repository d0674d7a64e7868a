package core

import (
	"context"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/identity"
	"github.com/twoldag/twoldag/internal/ledger"
)

// StoreFetcher is the in-process Fetcher: it runs each request's
// Algorithm 4 directly against the responder's store. The simulator
// audits through it and so do the tests; cost accounting and malicious
// behaviors ride on the Intercept hooks. An answer is immediate, so
// the context goes unread: the validator checks it before each probe.
// Lookup and the hooks run on the auditing goroutine, and concurrent
// audits may share one StoreFetcher, so they must be safe for
// concurrent use.
type StoreFetcher struct {
	// Lookup resolves a responder to its store. A node it does not
	// find does not answer: the request times out (ErrTimeout).
	Lookup func(identity.NodeID) (*ledger.Store, bool)
	// InterceptChild, when non-nil, may rewrite or suppress a child
	// reply before the validator sees it. It receives the responder,
	// the target digest and the honest answer; returning an error
	// simulates a timeout or refusal.
	InterceptChild func(j identity.NodeID, target digest.Digest, h *block.Header, err error) (*block.Header, error)
	// InterceptBlock is the analogous hook for full-block retrievals.
	InterceptBlock func(ref block.Ref, b *block.Block, err error) (*block.Block, error)
}

var _ Fetcher = (*StoreFetcher)(nil)

// RequestChild implements Fetcher by running Algorithm 4 in-process.
func (f *StoreFetcher) RequestChild(_ context.Context, j identity.NodeID, target digest.Digest) (*block.Header, error) {
	h, err := f.child(j, target)
	if f.InterceptChild != nil {
		return f.InterceptChild(j, target, h, err)
	}
	return h, err
}

// child is j's honest answer to REQ_CHILD(target).
func (f *StoreFetcher) child(j identity.NodeID, target digest.Digest) (*block.Header, error) {
	s, ok := f.Lookup(j)
	if !ok {
		return nil, ErrTimeout
	}
	v, err := NewResponder(s).Child(target)
	if err != nil {
		return nil, err
	}
	return v.Header()
}

// FetchBlock implements Fetcher.
func (f *StoreFetcher) FetchBlock(_ context.Context, ref block.Ref) (*block.Block, error) {
	var b *block.Block
	s, ok := f.Lookup(ref.Node)
	err := ErrTimeout
	if ok {
		b, err = NewResponder(s).Block(ref)
	}
	if f.InterceptBlock != nil {
		return f.InterceptBlock(ref, b, err)
	}
	return b, err
}
