// Package e2e exercises a real cross-host cluster: it builds the
// twoldag binary once, spawns one `twoldag serve` process per planned
// device, drives them over the JSON-lines control protocol on their
// stdio, kills one mid-run under a seeded fault plan, grows the cluster
// back with `twoldag join -addr`, and asserts that every sealed header
// hash and every audit verdict matches the deterministic simulator
// driving the identical workload on the same (nodes, seed, gamma,
// difficulty) world.
//
// Every wait is event-driven: the control protocol is strictly
// request/response (a flush response means every live neighbor
// acknowledged), process startup is signalled by the ready line, and
// process death by Wait. No step polls with sleeps.
package e2e

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/twoldag/twoldag"
	"github.com/twoldag/twoldag/internal/cluster"
)

// The shared world. Every process and the simulator oracle must agree.
const (
	nodes      = 3
	seed       = 7
	gamma      = 1
	difficulty = 2
	victim     = 2 // killed mid-run; must not be 0, the bootstrap seed
)

// worldFlags configure one host process for the shared world plus the
// seeded chaos riding it: a light frame drop with the retry budget that
// rides it out, and a crash window parked on the victim from the kill
// slot on, so survivor frames addressed to the corpse die silently and
// deterministically instead of exercising kernel-dependent TCP errors.
var worldFlags = []string{
	"-nodes", fmt.Sprint(nodes),
	"-seed", fmt.Sprint(seed),
	"-gamma", fmt.Sprint(gamma),
	"-difficulty", fmt.Sprint(difficulty),
	"-timeout", "1s",
	"-drop", "0.03",
	"-crash-node", fmt.Sprint(victim),
	"-crash-from", "4",
	"-crash-until", "100",
	"-retry", "4",
	"-retry-base", "10ms",
	"-retry-max", "60ms",
	"-retry-jitter", "0.5",
}

var bin string // the twoldag binary, built once by TestMain

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "twoldag-e2e")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer os.RemoveAll(dir)
	bin = filepath.Join(dir, "twoldag")
	args := []string{"build"}
	if raceEnabled {
		args = append(args, "-race")
	}
	args = append(args, "-o", bin, "./cmd/twoldag")
	build := exec.Command("go", args...)
	build.Dir = "../.." // repo root; go test runs us in test/e2e
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		fmt.Fprintf(os.Stderr, "building twoldag: %v\n", err)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

// proc is one live host process driven over its stdio.
type proc struct {
	t    *testing.T
	cmd  *exec.Cmd
	in   io.WriteCloser
	enc  *json.Encoder
	dec  *json.Decoder
	id   uint32
	addr string
}

// spawn starts the binary and blocks until its ready line arrives.
func spawn(t *testing.T, args ...string) *proc {
	t.Helper()
	cmd := exec.Command(bin, args...)
	in, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting %v: %v", args, err)
	}
	p := &proc{t: t, cmd: cmd, in: in, enc: json.NewEncoder(in), dec: json.NewDecoder(out)}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	})
	var ready cluster.ControlReady
	if err := p.dec.Decode(&ready); err != nil {
		t.Fatalf("reading ready line of %v: %v", args, err)
	}
	if ready.Event != "ready" {
		t.Fatalf("first line of %v: %+v", args, ready)
	}
	p.id, p.addr = ready.ID, ready.Addr
	return p
}

// call runs one request/response round trip; failures are fatal.
func (p *proc) call(req cluster.ControlRequest) cluster.ControlResponse {
	p.t.Helper()
	if err := p.enc.Encode(req); err != nil {
		p.t.Fatalf("proc %d: sending %+v: %v", p.id, req, err)
	}
	var resp cluster.ControlResponse
	if err := p.dec.Decode(&resp); err != nil {
		p.t.Fatalf("proc %d: reading response to %+v: %v", p.id, req, err)
	}
	return resp
}

// mustOK is call for ops whose failure ends the test.
func (p *proc) mustOK(req cluster.ControlRequest) cluster.ControlResponse {
	p.t.Helper()
	resp := p.call(req)
	if !resp.OK {
		p.t.Fatalf("proc %d: op %q failed: %s", p.id, req.Op, resp.Err)
	}
	return resp
}

// leave shuts the process down gracefully and reaps it.
func (p *proc) leave() {
	p.t.Helper()
	p.mustOK(cluster.ControlRequest{Op: "leave"})
	if err := p.cmd.Wait(); err != nil {
		p.t.Fatalf("proc %d: exit after leave: %v", p.id, err)
	}
}

// kill simulates a crash: SIGKILL, then reap.
func (p *proc) kill() {
	p.t.Helper()
	if err := p.cmd.Process.Kill(); err != nil {
		p.t.Fatal(err)
	}
	_ = p.cmd.Wait() // "signal: killed" is the point
}

// TestServeRejectsBadFlags: serve refuses, before it listens, every
// value the facade would refuse — and every value it would otherwise
// narrow into another one (-difficulty 256 into no proof of work, -id
// 2^32 into node 0) — exiting non-zero with a one-line error.
func TestServeRejectsBadFlags(t *testing.T) {
	for _, bad := range [][]string{
		{"-difficulty", "256"},
		{"-id", "4294967296"},
		{"-gamma", "7"},
		{"-drop", "1.5"},
		{"-retry", "3", "-retry-jitter", "2"},
		{"-retry", "3", "-retry-base", "-1s"},
		{"-trust-cap", "-4"},
		{"-crash-node", "-2"},
	} {
		t.Run(strings.Join(bad, " "), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			var stderr bytes.Buffer
			cmd := exec.CommandContext(ctx, bin, append([]string{"serve", "-nodes", "3"}, bad...)...)
			cmd.Stderr = &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() <= 0 {
				t.Fatalf("serve %v: %v, want a non-zero exit", bad, err)
			}
			if lines := strings.Split(strings.TrimSpace(stderr.String()), "\n"); len(lines) != 1 || lines[0] == "" {
				t.Fatalf("serve %v wrote %q, want one line of error", bad, stderr.String())
			}
		})
	}
}

// TestServeMetrics: the metrics op of a live durable serve answers its
// event counters in the Prometheus text format, and a seal moves the
// block counter and both WAL counters — the seal's commit window, one
// fsync, and the bytes it made durable.
func TestServeMetrics(t *testing.T) {
	p := spawn(t, append([]string{"serve", "-id", "0"}, recoveryFlags(t.TempDir(), 0)...)...)
	counters := func() map[string]int64 {
		t.Helper()
		text := p.mustOK(cluster.ControlRequest{Op: "metrics"}).Metrics
		out := map[string]int64{}
		for _, line := range strings.Split(text, "\n") {
			var name string
			var v int64
			if !strings.HasPrefix(line, "#") && line != "" {
				if _, err := fmt.Sscanf(line, "%s %d", &name, &v); err != nil {
					t.Fatalf("metrics line %q: %v", line, err)
				}
				out[name] = v
			}
		}
		return out
	}
	before := counters()
	p.mustOK(cluster.ControlRequest{Op: "seal", Data: payload(0, 1)})
	after := counters()
	for _, name := range []string{"twoldag_blocks_sealed_total", "twoldag_wal_fsyncs_total", "twoldag_wal_bytes_written_total"} {
		if _, ok := before[name]; !ok {
			t.Fatalf("the metrics op reports no %s:\n%v", name, before)
		}
		if after[name] <= before[name] {
			t.Fatalf("%s read %d before a seal and %d after it", name, before[name], after[name])
		}
	}
	if got := after["twoldag_blocks_sealed_total"] - before["twoldag_blocks_sealed_total"]; got != 1 {
		t.Fatalf("one seal counted %d blocks", got)
	}
	p.leave()
}

// payload is the deterministic per-block body both sides submit.
func payload(id uint32, slot int) []byte {
	return []byte(fmt.Sprintf("n%d@s%d", id, slot))
}

// observation is one run's comparable outcome.
type observation struct {
	hashes   []string // sealed header hashes, submission order
	verdicts []bool   // audit consensus outcomes, request order
	vouchers []int    // audit voucher counts, request order
	joiner   uint32
}

// simOracle drives the identical workload on the simulator: three
// submit slots, victim silenced, an audit slot, a dynamic join, a
// post-join submit slot, a final audit slot.
func simOracle(t *testing.T) observation {
	t.Helper()
	rt, err := twoldag.New(
		twoldag.WithSimulator(),
		twoldag.WithNodes(nodes),
		twoldag.WithSeed(seed),
		twoldag.WithGamma(gamma),
		twoldag.WithDifficulty(difficulty),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	ctx := context.Background()
	var obs observation
	submit := func(slot int, ids []twoldag.NodeID) {
		t.Helper()
		rt.AdvanceSlot()
		batch := make([]twoldag.Submission, len(ids))
		for i, id := range ids {
			batch[i] = twoldag.Submission{Node: id, Data: payload(uint32(id), slot)}
		}
		refs, err := rt.SubmitBatch(ctx, batch)
		if err != nil {
			t.Fatalf("sim SubmitBatch slot %d: %v", slot, err)
		}
		for _, ref := range refs {
			b, err := rt.Block(ref)
			if err != nil {
				t.Fatal(err)
			}
			obs.hashes = append(obs.hashes, b.Header.Hash().Hex())
		}
	}
	audit := func(validator twoldag.NodeID, ref twoldag.Ref) {
		t.Helper()
		res, err := rt.Audit(ctx, validator, ref)
		if res == nil {
			t.Fatalf("sim audit %v by %v: %v", ref, validator, err)
		}
		obs.verdicts = append(obs.verdicts, res.Consensus)
		obs.vouchers = append(obs.vouchers, len(res.Vouchers))
	}

	all := rt.Nodes()
	for slot := 1; slot <= 3; slot++ {
		submit(slot, all)
	}
	if err := rt.Silence(victim); err != nil {
		t.Fatal(err)
	}
	rt.AdvanceSlot() // slot 4: audit-only, routing around the victim
	audit(1, twoldag.Ref{Node: 0, Seq: 1})
	audit(0, twoldag.Ref{Node: 1, Seq: 1})
	joiner, err := rt.Join()
	if err != nil {
		t.Fatal(err)
	}
	obs.joiner = uint32(joiner)
	submit(5, []twoldag.NodeID{0, 1, joiner})
	rt.AdvanceSlot() // slot 6: the joiner audits history, history audits it
	audit(joiner, twoldag.Ref{Node: 0, Seq: 1})
	audit(1, twoldag.Ref{Node: joiner, Seq: 0})
	return obs
}

// TestClusterMatchesSimulator is the headline e2e: three real
// processes, one killed and replaced mid-run, byte-identical sealed
// headers and identical audit verdicts and voucher counts to the
// simulator.
func TestClusterMatchesSimulator(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	want := simOracle(t)

	// Boot the planned cluster: process 0 first, the rest discover the
	// directory through it.
	procs := make([]*proc, nodes)
	procs[0] = spawn(t, append([]string{"serve", "-id", "0"}, worldFlags...)...)
	for id := 1; id < nodes; id++ {
		procs[id] = spawn(t, append([]string{
			"serve", "-id", fmt.Sprint(id), "-bootstrap", procs[0].addr,
		}, worldFlags...)...)
	}
	for id, p := range procs {
		if p.id != uint32(id) {
			t.Fatalf("proc %d reports id %d", id, p.id)
		}
	}

	var got observation
	// submitSlot runs one slot in the phase order header equivalence
	// depends on: everyone advances, everyone seals, only then does
	// anyone flush — so every header embeds the digest snapshot as of
	// the previous slot, exactly as the simulator's SubmitBatch seals.
	submitSlot := func(slot int, members []*proc) {
		t.Helper()
		for _, p := range members {
			p.mustOK(cluster.ControlRequest{Op: "slot", Slot: uint32(slot)})
		}
		type sealed struct {
			p *proc
			d string
		}
		seals := make([]sealed, 0, len(members))
		for _, p := range members {
			resp := p.mustOK(cluster.ControlRequest{Op: "seal", Data: payload(p.id, slot)})
			if resp.Ref == nil || resp.Ref.Node != p.id {
				t.Fatalf("proc %d: seal returned ref %+v", p.id, resp.Ref)
			}
			got.hashes = append(got.hashes, resp.Digest)
			seals = append(seals, sealed{p, resp.Digest})
		}
		for _, s := range seals {
			s.p.mustOK(cluster.ControlRequest{Op: "flush", Digests: []string{s.d}})
		}
	}
	audit := func(p *proc, ref cluster.ControlRef) {
		t.Helper()
		resp := p.call(cluster.ControlRequest{Op: "audit", Ref: &ref})
		if !resp.OK || resp.Consensus == nil {
			t.Fatalf("proc %d: audit %+v: %s", p.id, ref, resp.Err)
		}
		if resp.Err != "" {
			t.Logf("proc %d: audit %+v: consensus=%v vouchers=%d err=%s", p.id, ref, *resp.Consensus, resp.Vouchers, resp.Err)
		}
		got.verdicts = append(got.verdicts, *resp.Consensus)
		got.vouchers = append(got.vouchers, resp.Vouchers)
	}

	for slot := 1; slot <= 3; slot++ {
		submitSlot(slot, procs)
	}

	// The victim dies for real: survivors mark it dead first (the
	// distributed Silence), then the process is SIGKILLed — its state
	// is gone, which is why the cluster grows back via a new joiner
	// rather than a restart.
	survivors := []*proc{procs[0], procs[1]}
	for _, p := range survivors {
		p.mustOK(cluster.ControlRequest{Op: "silence", Node: victim})
	}
	procs[victim].kill()

	for _, p := range survivors {
		p.mustOK(cluster.ControlRequest{Op: "slot", Slot: 4})
	}
	audit(procs[1], cluster.ControlRef{Node: 0, Seq: 1})
	audit(procs[0], cluster.ControlRef{Node: 1, Seq: 1})

	// Grow back: the joiner discovers the cluster, re-anchors to the
	// newest live device, and must land on the same identity the
	// simulator's placement rule chose.
	joiner := spawn(t, append([]string{"join", "-addr", procs[0].addr}, worldFlags...)...)
	if joiner.id != want.joiner {
		t.Fatalf("joiner id %d, simulator placed %d", joiner.id, want.joiner)
	}
	for _, p := range survivors {
		info := p.mustOK(cluster.ControlRequest{Op: "info"})
		for _, id := range info.Live {
			if id == victim {
				t.Fatalf("proc %d still counts the dead victim live: %v", p.id, info.Live)
			}
		}
	}

	members := []*proc{procs[0], procs[1], joiner}
	submitSlot(5, members)
	for _, p := range members {
		p.mustOK(cluster.ControlRequest{Op: "slot", Slot: 6})
	}
	audit(joiner, cluster.ControlRef{Node: 0, Seq: 1})
	audit(procs[1], cluster.ControlRef{Node: uint32(want.joiner), Seq: 0})

	for _, p := range members {
		p.leave()
	}

	if len(got.hashes) != len(want.hashes) {
		t.Fatalf("sealed %d blocks, simulator sealed %d", len(got.hashes), len(want.hashes))
	}
	for i := range want.hashes {
		if got.hashes[i] != want.hashes[i] {
			t.Errorf("sealed header %d: cluster %s, simulator %s", i, got.hashes[i], want.hashes[i])
		}
	}
	if len(got.verdicts) != len(want.verdicts) {
		t.Fatalf("ran %d audits, simulator ran %d", len(got.verdicts), len(want.verdicts))
	}
	for i := range want.verdicts {
		if got.verdicts[i] != want.verdicts[i] {
			t.Errorf("audit %d: cluster consensus=%v, simulator consensus=%v", i, got.verdicts[i], want.verdicts[i])
		}
		if got.vouchers[i] != want.vouchers[i] {
			t.Errorf("audit %d: cluster vouchers=%d, simulator vouchers=%d", i, got.vouchers[i], want.vouchers[i])
		}
	}
}
