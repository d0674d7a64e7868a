package twoldag

import (
	"errors"
	"fmt"
	"time"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/faults"
	"github.com/twoldag/twoldag/internal/ledger"
	"github.com/twoldag/twoldag/internal/pow"
	"github.com/twoldag/twoldag/internal/topology"
)

// TransportKind selects the live driver's message fabric.
type TransportKind int

const (
	// InMemory is the zero-configuration in-process fabric (default).
	InMemory TransportKind = iota
	// TCP runs every node on its own loopback TCP listener with
	// length-prefixed frames — the same code path a real distributed
	// deployment uses.
	TCP
)

// String names the transport kind.
func (t TransportKind) String() string {
	switch t {
	case InMemory:
		return "inmem"
	case TCP:
		return "tcp"
	default:
		return fmt.Sprintf("transport(%d)", int(t))
	}
}

// Option configures New.
type Option func(*config) error

// config is the resolved runtime configuration.
type config struct {
	sim         bool // WithSimulator; the live driver otherwise
	nodes       int
	gamma       int
	seed        int64
	topo        *topology.Graph
	params      block.Params
	rto         time.Duration
	transport   TransportKind
	observers   []Observer
	malicious   int
	bodyBytes   int
	faultPlan   faults.Plan
	retry       faults.RetryPolicy
	dataDir     string
	trustCap    int
	backendOpts []ledger.BackendOption // in-package tests only: fault injection under the log
}

func defaultConfig() *config {
	return &config{
		params:    block.DefaultParams(),
		rto:       2 * time.Second,
		bodyBytes: 100_000,
	}
}

// WithNodes sets the device count; the radio topology is generated
// from the seed at the paper's deployment density. Ignored when
// WithTopology supplies an explicit graph.
func WithNodes(n int) Option {
	return func(c *config) error {
		if n <= 0 {
			return fmt.Errorf("twoldag: WithNodes(%d): node count must be positive", n)
		}
		c.nodes = n
		return nil
	}
}

// WithGamma sets the PoP consensus threshold γ: audits need γ+1
// distinct vouchers (tolerating γ malicious nodes).
func WithGamma(g int) Option {
	return func(c *config) error {
		if g < 0 {
			return fmt.Errorf("twoldag: WithGamma(%d): gamma must be non-negative", g)
		}
		c.gamma = g
		return nil
	}
}

// WithSeed anchors every random choice — placement, identities, the
// simulator's behavior assignment. Same seed, same deployment.
func WithSeed(seed int64) Option {
	return func(c *config) error {
		c.seed = seed
		return nil
	}
}

// WithTopology supplies an explicit radio graph instead of generating
// one (e.g. the paper's Fig. 4 fixture, or a hand-linked testbed).
func WithTopology(g *Topology) Option {
	return func(c *config) error {
		if g == nil {
			return errors.New("twoldag: WithTopology(nil)")
		}
		c.topo = g
		return nil
	}
}

// WithDifficulty sets the proof-of-work level ρ in bits (default: the
// paper's 8 bits, on both drivers, so identical options build
// identical blocks). Cost accounting never depends on ρ, so large
// simulator sweeps may set 0 to skip mining entirely.
func WithDifficulty(bits uint8) Option {
	return func(c *config) error {
		c.params.Difficulty = pow.Difficulty(bits)
		return nil
	}
}

// WithRequestTimeout sets the PoP request timeout τ and the fallback
// deadline for announcement acknowledgements when the submit context
// carries none (default 2s).
func WithRequestTimeout(d time.Duration) Option {
	return func(c *config) error {
		if d <= 0 {
			return fmt.Errorf("twoldag: WithRequestTimeout(%v): timeout must be positive", d)
		}
		c.rto = d
		return nil
	}
}

// WithTransport selects the live driver's fabric: InMemory (default)
// or TCP. The simulator resolves requests in-process and rejects this
// option.
func WithTransport(k TransportKind) Option {
	return func(c *config) error {
		if k != InMemory && k != TCP {
			return fmt.Errorf("twoldag: WithTransport(%v): unknown transport", k)
		}
		c.transport = k
		return nil
	}
}

// WithObserver attaches a typed event observer; repeat the option to
// attach several. Observers must be safe for concurrent use.
func WithObserver(o Observer) Option {
	return func(c *config) error {
		if o == nil {
			return errors.New("twoldag: WithObserver(nil)")
		}
		c.observers = append(c.observers, o)
		return nil
	}
}

// WithFaults installs a seeded fault-injection plan on the live
// driver: every node's transport is wrapped so frames suffer the
// plan's drops, delays, duplicates, partitions and crash windows —
// deterministically, keyed on (seed, sender, receiver, send ordinal),
// so the same plan replays identically over the in-memory fabric and
// TCP. The zero plan injects nothing and leaves transports unwrapped.
// Live driver only: the simulator has no wire to disturb.
func WithFaults(plan FaultPlan) Option {
	return func(c *config) error {
		if err := plan.Validate(); err != nil {
			return fmt.Errorf("twoldag: WithFaults: %w", err)
		}
		c.faultPlan = plan
		return nil
	}
}

// WithRetryPolicy enables bounded re-transmission on the live driver:
// announcement frames re-send to neighbors whose acknowledgement is
// missing, and PoP requests re-issue after timeouts, both backing off
// exponentially with deterministic jitter. The zero policy (default)
// disables retries — the protocol's baseline best-effort behavior.
// Safe at any setting because receive paths are idempotent (see
// node.AnnounceBatch). Live driver only.
func WithRetryPolicy(p RetryPolicy) Option {
	return func(c *config) error {
		if err := p.Validate(); err != nil {
			return fmt.Errorf("twoldag: WithRetryPolicy: %w", err)
		}
		c.retry = p
		return nil
	}
}

// WithDataDir makes the live driver's ledgers durable. The devices of
// the process write to one write-ahead log, dir/wal.log (dir/wal.old
// beside it inside a compaction), every record naming its device, and
// each keeps its own block segment and checkpoint under dir/node-<id>
// (ledger.Log and ledger.FileBackend). A device recovers its whole
// prior state (S_i, H_i, A_i) on start from its checkpoint and segment
// plus its records in the log, and every sealed block is fsynced
// before it is appended, announced or returned — one fsync per round
// of a batch for all the devices in it (see SubmitBatch), so a single
// Submit pays one fsync of its own. A silenced
// node leaves its state in its segment and checkpoint and can be
// brought back with Cluster.Restart, resuming exactly from its last
// durable record — the crash/recovery scenario of the robustness
// suite. Live driver only: the simulator's world is rebuilt
// deterministically from its seed.
func WithDataDir(dir string) Option {
	return func(c *config) error {
		if dir == "" {
			return errors.New("twoldag: WithDataDir(\"\")")
		}
		c.dataDir = dir
		return nil
	}
}

// WithTrustCap bounds every node's trust store H_i to n headers,
// evicting oldest-inserted first (ledger.TrustStore.SetCap) — the knob
// that keeps long-lived deployments' memory bounded, on both drivers.
// With WithDataDir the cap is persisted in the checkpoint and survives
// restarts. 0 (default) is unbounded.
func WithTrustCap(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("twoldag: WithTrustCap(%d): cap must be non-negative", n)
		}
		c.trustCap = n
		return nil
	}
}

// WithSimulator selects the deterministic slot simulator instead of the
// live driver (the default, one node runtime per device exchanging real
// wire messages over the selected transport): the same engines and PoP
// validators, but requests resolve in-process with the paper's analytic
// cost accounting and injectable attack behaviors. Same options, same
// Runtime verbs, reproducible runs.
func WithSimulator() Option {
	return func(c *config) error {
		c.sim = true
		return nil
	}
}

// WithMalicious makes n nodes behave maliciously (silent to PoP
// requests, the paper's headline attack). Simulator only: the live
// driver expresses the same condition with Silence.
func WithMalicious(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("twoldag: WithMalicious(%d): count must be non-negative", n)
		}
		c.malicious = n
		return nil
	}
}

// WithBodyBytes sets C, the simulator's accounted body size in bytes
// (default 100 kB; the paper evaluates 0.1/0.5/1 MB). The live driver
// stores real bodies and ignores the analytic size.
func WithBodyBytes(n int) Option {
	return func(c *config) error {
		if n <= 0 {
			return fmt.Errorf("twoldag: WithBodyBytes(%d): body size must be positive", n)
		}
		c.bodyBytes = n
		return nil
	}
}

// resolveTopology returns the configured graph or generates one from
// (nodes, seed), scaling the paper's deployment density down so small
// clusters stay multi-hop but connected.
func (c *config) resolveTopology() (*topology.Graph, error) {
	if c.topo != nil {
		return c.topo, nil
	}
	if c.nodes <= 0 {
		return nil, errors.New("twoldag: node count must be positive (use WithNodes or WithTopology)")
	}
	g, err := topology.Deployment(c.nodes, c.seed)
	if err != nil {
		return nil, fmt.Errorf("twoldag: generating topology: %w", err)
	}
	return g, nil
}

// validate runs the cross-field checks once the topology is known.
func (c *config) validate(g *topology.Graph) error {
	if c.gamma < 0 || c.gamma >= g.Len() {
		return fmt.Errorf("twoldag: gamma %d out of range for %d nodes", c.gamma, g.Len())
	}
	if !c.sim {
		if c.malicious > 0 {
			return errors.New("twoldag: WithMalicious requires the simulator driver (use Silence on a live cluster)")
		}
	}
	if c.sim {
		if c.transport != InMemory {
			return errors.New("twoldag: WithTransport applies to the live driver only")
		}
		if c.dataDir != "" {
			return errors.New("twoldag: WithDataDir applies to the live driver only")
		}
		if c.faultPlan.Active() {
			return errors.New("twoldag: WithFaults applies to the live driver only")
		}
		if c.retry.Enabled() {
			return errors.New("twoldag: WithRetryPolicy applies to the live driver only")
		}
		if c.malicious >= g.Len() {
			return fmt.Errorf("twoldag: %d malicious nodes out of range for %d nodes", c.malicious, g.Len())
		}
	}
	return nil
}
