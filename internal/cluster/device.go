package cluster

import (
	"fmt"
	"path/filepath"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/events"
	"github.com/twoldag/twoldag/internal/faults"
	"github.com/twoldag/twoldag/internal/ledger"
	"github.com/twoldag/twoldag/internal/node"
	"github.com/twoldag/twoldag/internal/transport"
)

// DeviceConfig is what one device is built from.
type DeviceConfig struct {
	// Node configures the runtime; NewDevice fills in Transport,
	// Health, State and Backend. Its Observer is the driver's merged
	// stream, user observers first: the AckTracker's ack, last, is what
	// unblocks a waiting submitter, so every user observer has seen a
	// delivery by the time the submitter returns.
	Node node.Config
	// Endpoint is the device's transport on the driver's fabric. The
	// device owns it from the call on.
	Endpoint transport.Transport
	// Plan, when active, wraps Endpoint in seeded fault injection timed
	// by Clock.
	Plan faults.Plan
	// Clock is the slot clock sealed blocks are stamped with.
	Clock func() uint32
}

// Device is one running 2LDAG device of a live driver: its node
// runtime and, on a durable deployment, the backend its S_i, H_i and
// A_i recovered from and journal to.
type Device struct {
	node    *node.Node
	backend *ledger.FileBackend
	health  *faults.Health
}

// NewDevice starts a device of the driver on the endpoint. On a durable
// deployment its backend opens on the log first, in dir/node-<id> — the
// one place a device's own files live — and its ledger state recovers
// from it. A device that fails to start has closed its endpoint and
// backend.
func (s *Sealer) NewDevice(cfg DeviceConfig) (d *Device, err error) {
	var fb *ledger.FileBackend
	defer func() {
		if err != nil {
			if fb != nil {
				_ = fb.Close()
			}
			_ = cfg.Endpoint.Close()
		}
	}()
	ncfg := cfg.Node
	id, obs := ncfg.Key.ID, ncfg.Observer
	if tn, ok := cfg.Endpoint.(*transport.TCPNode); ok && obs != nil {
		// TCP cannot report receiver-side backpressure to the sender;
		// surface each inbound inbox-full loss as a MessageDropped.
		tn.SetDropHandler(func(env transport.Envelope) {
			obs.OnMessageDropped(events.MessageDropped{
				From: env.From, To: id, Kind: uint8(env.Msg.Kind),
				Reason: events.DropBackpressure,
			})
		})
	}
	ncfg.Transport = cfg.Endpoint
	if cfg.Plan.Active() {
		ncfg.Transport = faults.Wrap(cfg.Endpoint, cfg.Plan, cfg.Clock, obs)
	}
	ncfg.Health = faults.NewHealth(id, obs)
	if s.Log != nil {
		if fb, err = s.Log.OpenBackend(filepath.Join(s.dir, fmt.Sprintf("node-%d", id))); err != nil {
			return nil, fmt.Errorf("cluster: node %v: %w", id, err)
		}
		// The whole prior state — checkpoint and segment, then WAL
		// replay, re-verified against the ring — before the node serves.
		ncfg.State, err = fb.Recover(ledger.RecoverOptions{
			Owner:    id,
			Params:   ncfg.Params,
			Ring:     ncfg.Ring,
			TrustCap: ncfg.TrustCap,
		})
		if err != nil {
			return nil, fmt.Errorf("cluster: recovering node %v: %w", id, err)
		}
		ncfg.Backend = fb
	}
	n, err := node.New(ncfg)
	if err != nil {
		return nil, fmt.Errorf("cluster: starting node %v: %w", id, err)
	}
	n.SetClock(cfg.Clock)
	return &Device{node: n, backend: fb, health: ncfg.Health}, nil
}

// Node returns the device's node runtime.
func (d *Device) Node() *node.Node { return d.node }

// Backend returns the device's data dir backend, nil in memory.
func (d *Device) Backend() *ledger.FileBackend { return d.backend }

// StateDigest returns a canonical digest over the device's whole
// ledger state (ledger.NodeState.Digest), for identity checks across
// crash/recovery boundaries: equal states give equal digests.
func (d *Device) StateDigest() digest.Digest { return d.node.Engine().State().Digest() }

// Latest returns the ref and digest of the device's newest sealed
// block. ok is false for an empty store.
func (d *Device) Latest() (ref block.Ref, dg digest.Digest, ok bool) {
	b := d.node.Engine().Store().Latest()
	if b == nil {
		return block.Ref{}, digest.Digest{}, false
	}
	return b.Header.Ref(), b.Header.Hash(), true
}

// Block returns the device's own block seq: shared store state, or
// read back from its record — in the log, then its segment — once the
// commit window that logged it has fsynced; read-only either way.
func (d *Device) Block(seq uint32) (*block.Block, error) {
	return d.node.Engine().Store().Get(seq)
}

// Checkpoint commits the device's state to its own segment and
// checkpoint (ledger.FileBackend.Compact); a no-op in memory, and one
// that writes nothing for a device that logged nothing since its last
// checkpoint.
func (d *Device) Checkpoint() error {
	if d.backend == nil {
		return nil
	}
	return d.backend.Compact(func() (*ledger.NodeState, error) { return d.node.Engine().State(), nil })
}

// Close stops the node — its RPC layer, transport and listener — and
// then closes the backend: until the node stops serving, a GET_BLOCK
// still reads a body that lives only in the segment, and the records
// of frames that arrive meanwhile still reach the log.
func (d *Device) Close() error {
	err := d.node.Close()
	if d.backend != nil {
		if cerr := d.backend.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
