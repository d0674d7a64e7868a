// Package attack models the adversarial behaviors analyzed in the
// paper's security discussion (Sec. IV-D): silent nodes, header
// corruption (man-in-the-middle) and eclipse filtering. A selfish node
// of Sec. IV-D6, one that refuses to serve, is a Silent one: no
// redemption is modelled that would bring it back. Behaviors intercept
// a responder's honest reply on its way to a validator; the simulator
// injects them behind the core.Fetcher seam, so the validator code
// under test is exactly the production code.
package attack

import (
	"math/rand"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/core"
	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/identity"
)

// Behavior rewrites (or suppresses) one node's responder traffic.
type Behavior interface {
	// OnChildRequest intercepts the reply node j would send to
	// validator for REQ_CHILD(target). h/err is the honest outcome.
	OnChildRequest(validator, j identity.NodeID, target digest.Digest, h *block.Header, err error) (*block.Header, error)
	// OnBlockRequest intercepts full-block retrievals served by node j.
	OnBlockRequest(validator, j identity.NodeID, b *block.Block, err error) (*block.Block, error)
}

// Honest passes traffic through unchanged. The zero value is ready.
type Honest struct{}

// OnChildRequest implements Behavior.
func (Honest) OnChildRequest(_, _ identity.NodeID, _ digest.Digest, h *block.Header, err error) (*block.Header, error) {
	return h, err
}

// OnBlockRequest implements Behavior.
func (Honest) OnBlockRequest(_, _ identity.NodeID, b *block.Block, err error) (*block.Block, error) {
	return b, err
}

// Silent never answers any PoP request — the malicious model of the
// paper's Fig. 5 and the consensus experiments (Sec. VI-C). The zero
// value is ready.
type Silent struct{}

// OnChildRequest implements Behavior.
func (Silent) OnChildRequest(_, _ identity.NodeID, _ digest.Digest, _ *block.Header, _ error) (*block.Header, error) {
	return nil, core.ErrTimeout
}

// OnBlockRequest implements Behavior.
func (Silent) OnBlockRequest(_, _ identity.NodeID, _ *block.Block, _ error) (*block.Block, error) {
	return nil, core.ErrTimeout
}

// Corrupt answers with forged headers/blocks: one Δ digest (or body
// byte) is flipped, modeling a captured node serving tampered data
// (Sec. IV-D4). Signature checks at the validator catch it.
type Corrupt struct{}

// OnChildRequest implements Behavior.
func (Corrupt) OnChildRequest(_, _ identity.NodeID, _ digest.Digest, h *block.Header, err error) (*block.Header, error) {
	if err != nil || h == nil {
		return h, err
	}
	forged := h.Clone()
	if len(forged.Digests) > 0 {
		forged.Digests[0].Digest[0] ^= 0xFF
	} else {
		forged.Root[0] ^= 0xFF
	}
	return forged, nil
}

// OnBlockRequest implements Behavior.
func (Corrupt) OnBlockRequest(_, _ identity.NodeID, b *block.Block, err error) (*block.Block, error) {
	if err != nil || b == nil {
		return b, err
	}
	forged := b.Clone()
	if len(forged.Body) > 0 {
		forged.Body[0] ^= 0xFF
	}
	return forged, nil
}

// Eclipse answers only validators in its allow list, isolating all
// others (Sec. I's eclipse attack). The zero value eclipses everyone.
type Eclipse struct {
	// Allow lists validators that still receive replies.
	Allow map[identity.NodeID]bool
}

// OnChildRequest implements Behavior.
func (e Eclipse) OnChildRequest(validator, _ identity.NodeID, _ digest.Digest, h *block.Header, err error) (*block.Header, error) {
	if !e.Allow[validator] {
		return nil, core.ErrTimeout
	}
	return h, err
}

// OnBlockRequest implements Behavior.
func (e Eclipse) OnBlockRequest(validator, _ identity.NodeID, b *block.Block, err error) (*block.Block, error) {
	if !e.Allow[validator] {
		return nil, core.ErrTimeout
	}
	return b, err
}

// Kind identifies a behavior for configuration surfaces (CLI flags,
// experiment configs).
type Kind string

// Known behavior kinds.
const (
	KindHonest  Kind = "honest"
	KindSilent  Kind = "silent"
	KindCorrupt Kind = "corrupt"
	KindEclipse Kind = "eclipse"
)

// New constructs a behavior by kind. Unknown kinds yield Honest.
func New(k Kind) Behavior {
	switch k {
	case KindSilent:
		return Silent{}
	case KindCorrupt:
		return Corrupt{}
	case KindEclipse:
		return Eclipse{}
	default:
		return Honest{}
	}
}

// Assign picks n distinct malicious nodes uniformly from ids using rng
// and returns a behavior map (everyone else implicitly honest).
func Assign(ids []identity.NodeID, n int, k Kind, rng *rand.Rand) map[identity.NodeID]Behavior {
	out := make(map[identity.NodeID]Behavior, n)
	if n <= 0 {
		return out
	}
	perm := rng.Perm(len(ids))
	if n > len(ids) {
		n = len(ids)
	}
	for _, idx := range perm[:n] {
		out[ids[idx]] = New(k)
	}
	return out
}

// Compile-time conformance checks.
var (
	_ Behavior = Honest{}
	_ Behavior = Silent{}
	_ Behavior = Corrupt{}
	_ Behavior = Eclipse{}
)
