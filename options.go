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

// Driver selects which Runtime implementation New builds.
type Driver int

const (
	// DriverLive runs one node runtime per device exchanging real wire
	// messages over the selected transport. This is the default.
	DriverLive Driver = iota
	// DriverSim runs the deterministic slot simulator: the same
	// engines and PoP validators, but requests resolve in-process with
	// the paper's analytic cost accounting and injectable attack
	// behaviors. Same options, same Runtime verbs, reproducible runs.
	DriverSim
)

// String names the driver.
func (d Driver) String() string {
	switch d {
	case DriverLive:
		return "live"
	case DriverSim:
		return "sim"
	default:
		return fmt.Sprintf("driver(%d)", int(d))
	}
}

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
	driver       Driver
	nodes        int
	gamma        int
	seed         int64
	topo         *topology.Graph
	params       block.Params
	rto          time.Duration
	transport    TransportKind
	workers      int
	observers    []Observer
	malicious    int
	bodyBytes    int
	pipeline     int
	chunk        int
	faultPlan    faults.Plan
	retry        faults.RetryPolicy
	dataDir      string
	trustCap     int
	compactEvery int
	syncPolicy   SyncPolicy
	backendOpts  []ledger.BackendOption // in-package tests only: fault injection under the log
}

func defaultConfig() *config {
	return &config{
		params:    block.DefaultParams(),
		rto:       2 * time.Second,
		bodyBytes: 100_000,
		pipeline:  1,
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

// WithWorkers bounds the goroutines a batch call fans out over (0 =
// GOMAXPROCS): the audits of AuditMany on both drivers, and on the
// live driver the CPU side of SubmitBatch's seal stage — mining,
// signing and staging the blocks of a round, one device per worker. It
// does not bound I/O: a round's one fsync is the caller's. Results do
// not depend on the width; 1 runs either as a plain loop on the
// caller, in batch order.
func WithWorkers(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("twoldag: WithWorkers(%d): worker count must be non-negative", n)
		}
		c.workers = n
		return nil
	}
}

// WithPipelineDepth bounds how many slots of audit duty the
// simulator's slotted scheduler (SimDriver.RunSlots) may keep in
// flight behind generation. The default d = 1 runs the fully
// barriered schedule; d ≥ 2 overlaps slot t's audits with slot t+1's
// generation under the immutable-prefix contract — audits read every
// store through a view fenced at their slot boundary, and a node's
// next generation waits for its own outstanding audit so per-node
// random streams keep their barriered order. The Report is
// byte-identical for every depth and worker count on the same seed;
// the depth only trades memory (in-flight slots) for wall-clock
// overlap. Simulator only: the live driver's audits are already
// caller-paced.
func WithPipelineDepth(d int) Option {
	return func(c *config) error {
		if d < 1 {
			return fmt.Errorf("twoldag: WithPipelineDepth(%d): depth must be at least 1", d)
		}
		c.pipeline = d
		return nil
	}
}

// WithChunkSize sets how many nodes each worker-pool task covers in
// the simulator's slot phases (generation, announcement delivery,
// audit fan-out). The default 0 auto-sizes chunks from the worker
// count; at 10k+ nodes an explicit chunk in the hundreds amortizes
// dispatch overhead without hurting balance. Purely a scheduling knob:
// the Report is byte-identical for every chunk size on the same seed.
// Simulator only.
func WithChunkSize(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("twoldag: WithChunkSize(%d): chunk size must be non-negative", n)
		}
		c.chunk = n
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
// each keeps its own snapshot under dir/node-<id> (ledger.Log and
// ledger.FileBackend). A device recovers its whole prior state (S_i,
// H_i, A_i) on start from its snapshot plus its records in the log,
// and every sealed block is fsynced before it is appended, announced
// or returned — one fsync per round of a batch for all the devices in
// it (see SubmitBatch). A silenced node leaves its state in its
// snapshot and can be brought back with Cluster.Restart, resuming
// exactly from its last durable record — the crash/recovery scenario
// of the robustness suite. A dir whose node-<id> dirs still hold a
// wal.log each, as written before the log was shared, opens too and
// is converted on the way. Live driver only: the simulator's world is
// rebuilt deterministically from its seed.
func WithDataDir(dir string) Option {
	return func(c *config) error {
		if dir == "" {
			return errors.New("twoldag: WithDataDir(\"\")")
		}
		c.dataDir = dir
		return nil
	}
}

// WithCompactEvery sets the WAL compaction threshold in block records
// (default 256). The trigger is log-wide: once any one device has that
// many blocks in the current generation of the data dir's log, the
// log rotates once, every running device's state is folded into a
// fresh snapshot of its own, and the rotated generation is dropped —
// bounding both wal.log growth (devices x threshold blocks) and the
// recovery replay tail. Devices sealing in step, one block a slot,
// all get their snapshot in the slot of their n-th block. Requires
// WithDataDir; live driver only.
func WithCompactEvery(n int) Option {
	return func(c *config) error {
		if n <= 0 {
			return fmt.Errorf("twoldag: WithCompactEvery(%d): threshold must be positive", n)
		}
		c.compactEvery = n
		return nil
	}
}

// SyncPolicy selects when durable nodes fsync WAL block records —
// what closes a commit window (see ledger.SyncPolicy). Construct with
// SyncAlways, SyncBatch, or SyncInterval.
type SyncPolicy = ledger.SyncPolicy

// SyncAlways fsyncs every sealed block before acknowledging it (the
// default): nothing sealed is ever lost; concurrent seals share one
// flush via group commit.
func SyncAlways() SyncPolicy { return ledger.SyncAlways() }

// SyncBatch defers the fsync to the slot flush: one commit window per
// round of a Submit/SubmitBatch, closed before any digest is
// announced. A crash can only lose blocks no neighbor was ever told
// about.
func SyncBatch() SyncPolicy { return ledger.SyncBatch() }

// SyncInterval fsyncs staged records at most every d — bounded
// staleness: a crash loses at most the last d of sealed traffic.
func SyncInterval(d time.Duration) SyncPolicy { return ledger.SyncInterval(d) }

// WithSyncPolicy sets the WAL commit-window policy of the data dir's
// log (default SyncAlways). Requires WithDataDir; live driver only.
//
// On this driver SyncAlways and SyncBatch now do the same thing, at
// the same cost: Submit and SubmitBatch stage a round's blocks, close
// one window with one fsync, and only then append and announce, under
// either. What still tells them apart is a block logged outside that
// path — ledger.Store.Append straight on a journaled store, which is
// how cluster.Host (`twoldag serve`) seals: SyncAlways blocks that
// append on an fsync of its own, SyncBatch stages it and leaves the
// fsync to the host's flush. SyncInterval is the one policy with a
// different contract here too: the round's window is left to the
// ticker, and the blocks are appended and announced ahead of it.
func WithSyncPolicy(p SyncPolicy) Option {
	return func(c *config) error {
		if err := p.Validate(); err != nil {
			return fmt.Errorf("twoldag: WithSyncPolicy: %w", err)
		}
		c.syncPolicy = p
		return nil
	}
}

// WithTrustCap bounds every node's trust store H_i to n headers,
// evicting oldest-inserted first (ledger.TrustStore.SetCap) — the knob
// that keeps long-lived deployments' memory bounded, on both drivers.
// With WithDataDir the cap is persisted in the snapshot and survives
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

// WithDriver selects the Runtime implementation (default DriverLive).
func WithDriver(d Driver) Option {
	return func(c *config) error {
		if d != DriverLive && d != DriverSim {
			return fmt.Errorf("twoldag: WithDriver(%v): unknown driver", d)
		}
		c.driver = d
		return nil
	}
}

// WithSimulator is shorthand for WithDriver(DriverSim).
func WithSimulator() Option { return WithDriver(DriverSim) }

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
	if c.driver == DriverLive {
		if c.malicious > 0 {
			return errors.New("twoldag: WithMalicious requires the simulator driver (use Silence on a live cluster)")
		}
		if c.compactEvery > 0 && c.dataDir == "" {
			return errors.New("twoldag: WithCompactEvery requires WithDataDir")
		}
		if !c.syncPolicy.PerBlock() && c.dataDir == "" {
			return errors.New("twoldag: WithSyncPolicy requires WithDataDir")
		}
		if c.pipeline > 1 {
			return errors.New("twoldag: WithPipelineDepth applies to the simulator driver only")
		}
		if c.chunk > 0 {
			return errors.New("twoldag: WithChunkSize applies to the simulator driver only")
		}
	}
	if c.driver == DriverSim {
		if c.transport != InMemory {
			return errors.New("twoldag: WithTransport applies to the live driver only")
		}
		if c.dataDir != "" {
			return errors.New("twoldag: WithDataDir applies to the live driver only")
		}
		if c.compactEvery > 0 {
			return errors.New("twoldag: WithCompactEvery applies to the live driver only")
		}
		if !c.syncPolicy.PerBlock() {
			return errors.New("twoldag: WithSyncPolicy applies to the live driver only")
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
