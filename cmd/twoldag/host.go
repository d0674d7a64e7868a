package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/twoldag/twoldag/internal/cluster"
	"github.com/twoldag/twoldag/internal/faults"
	"github.com/twoldag/twoldag/internal/identity"
	"github.com/twoldag/twoldag/internal/metrics"
)

// runHost is the shared serve/join entry point: both host exactly one
// device in this process and speak the JSON-lines control protocol on
// stdin/stdout; they differ only in how the device gets its identity —
// serve takes a planned -id, join derives one from the placement rule
// after discovering the cluster through -addr.
func runHost(args []string, join bool) int {
	name := "serve"
	if join {
		name = "join"
	}
	fs := flag.NewFlagSet(name, flag.ExitOnError)

	// The shared world: every process of one cluster must agree on
	// these four, or topologies, identities and block hashes diverge.
	nodes := fs.Int("nodes", 3, "planned cluster size (must match every peer)")
	seed := fs.Int64("seed", 1, "world seed: placement and identities (must match every peer)")
	gamma := fs.Int("gamma", 1, "PoP consensus threshold γ (must match every peer)")
	difficulty := fs.Uint("difficulty", 8, "proof-of-work bits ρ (must match every peer)")

	listen := fs.String("listen", "127.0.0.1:0", "TCP bind address")
	advertise := fs.String("advertise", "", "address announced to peers (default: the bound address)")
	timeout := fs.Duration("timeout", 2*time.Second, "PoP request timeout τ and acknowledgement deadline")

	// Durability: with -data the ledger persists (WAL, block segment,
	// checkpoint), every seal fsyncs its block before the seal op
	// answers, and a killed process restarted on the same directory
	// resumes exactly where its last fsync'd block left off.
	dataDir := fs.String("data", "", "ledger data directory: wal.log, and node-<id>/ for the device's segment and checkpoint (empty: in-memory only)")
	trustCap := fs.Int("trust-cap", 0, "bound on retained trust headers H_i, oldest evicted first (0: unbounded)")

	var id *uint
	var addr *string
	if join {
		addr = fs.String("addr", "", "advertised address of a running member (required)")
	} else {
		id = fs.Uint("id", 0, "this process's planned node ID in [0, nodes)")
		addr = fs.String("bootstrap", "", "advertised address of a running member to discover the directory from (empty for the first process)")
	}

	// Optional chaos: a seeded fault plan plus the retry budget that
	// rides it out. Every process must install the same plan for the
	// injected schedule to be coherent cluster-wide.
	drop := fs.Float64("drop", 0, "per-frame loss probability in [0, 1]")
	crashNode := fs.Int("crash-node", -1, "node taken off the air for the crash window (-1: none)")
	crashFrom := fs.Uint("crash-from", 0, "crash window start slot (inclusive)")
	crashUntil := fs.Uint("crash-until", 0, "crash window end slot (exclusive)")
	retries := fs.Int("retry", 0, "announcement/PoP attempts including the first (<2 disables retries)")
	retryBase := fs.Duration("retry-base", 20*time.Millisecond, "backoff before the second attempt")
	retryMax := fs.Duration("retry-max", 200*time.Millisecond, "backoff cap")
	retryJitter := fs.Float64("retry-jitter", 0.5, "jitter fraction in [0, 1]")
	fs.Parse(args)

	// Every flag narrowed below must fit its type: a silent wrap would
	// turn -difficulty 256 into no proof of work, or -id 2^32 into node 0.
	type narrowed struct {
		name   string
		v, max uint64
	}
	checks := []narrowed{
		{"difficulty", uint64(*difficulty), math.MaxUint8},
		{"crash-from", uint64(*crashFrom), math.MaxUint32},
		{"crash-until", uint64(*crashUntil), math.MaxUint32},
	}
	if id != nil {
		checks = append(checks, narrowed{"id", uint64(*id), math.MaxUint32})
	}
	for _, c := range checks {
		if c.v > c.max {
			fmt.Fprintf(os.Stderr, "twoldag %s: -%s %d out of range [0, %d]\n", name, c.name, c.v, c.max)
			return 2
		}
	}
	if *crashNode < -1 || int64(*crashNode) > math.MaxUint32 {
		fmt.Fprintf(os.Stderr, "twoldag %s: -crash-node %d out of range [-1, %d]\n", name, *crashNode, math.MaxUint32)
		return 2
	}

	cfg := cluster.Config{
		Join:           join,
		JoinAddr:       *addr,
		Nodes:          *nodes,
		Seed:           *seed,
		Gamma:          *gamma,
		Difficulty:     uint8(*difficulty),
		Listen:         *listen,
		Advertise:      *advertise,
		RequestTimeout: *timeout,
		DataDir:        *dataDir,
		TrustCap:       *trustCap,
		// What the control loop's metrics op reports.
		Observer: new(metrics.EventCounters),
	}
	if !join {
		cfg.ID = identity.NodeID(*id)
	} else if *addr == "" {
		fmt.Fprintln(os.Stderr, "twoldag join: -addr is required")
		return 2
	}
	if *drop != 0 || *crashNode >= 0 {
		cfg.Plan = faults.Plan{Seed: *seed, DropRate: *drop}
		if *crashNode >= 0 {
			cfg.Plan.Crashes = []faults.CrashWindow{{
				Node: identity.NodeID(*crashNode),
				From: uint32(*crashFrom), Until: uint32(*crashUntil),
			}}
		}
	}
	if *retries >= 2 {
		cfg.Retry = faults.RetryPolicy{
			MaxAttempts: *retries,
			BaseDelay:   *retryBase,
			MaxDelay:    *retryMax,
			Jitter:      *retryJitter,
			Seed:        *seed,
		}
	}

	h, err := cluster.Start(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "twoldag %s: %v\n", name, err)
		return 1
	}
	if rep, ok := h.RecoveryReport(); ok {
		rate := ""
		if blocks := rep.SegmentBlocks + rep.WALBlocks; blocks > 0 && rep.Duration > 0 {
			rate = fmt.Sprintf(" in %s (%.0f blocks/s)",
				rep.Duration.Round(time.Microsecond), float64(blocks)/rep.Duration.Seconds())
		}
		fmt.Fprintf(os.Stderr, "twoldag %s: recovered %d segment + %d WAL blocks from %s%s\n",
			name, rep.SegmentBlocks, rep.WALBlocks, *dataDir, rate)
		if rep.TornTail {
			fmt.Fprintf(os.Stderr, "twoldag %s: discarded a %d-byte torn WAL tail (unacknowledged final record)\n",
				name, rep.TornBytes)
		}
	}

	// SIGINT/SIGTERM take the same graceful path as a leave op: cancel
	// in-flight verbs and unblock the stdin read so ServeControl runs
	// the host's ordered shutdown (drain, Leave broadcast, close).
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigs)
	go func() {
		select {
		case <-sigs:
			cancel()
			os.Stdin.Close()
		case <-ctx.Done():
		}
	}()

	if err := cluster.ServeControl(ctx, h, os.Stdin, os.Stdout); err != nil && ctx.Err() == nil {
		fmt.Fprintf(os.Stderr, "twoldag %s: %v\n", name, err)
		return 1
	}
	return 0
}
