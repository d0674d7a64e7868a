package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/events"
	"github.com/twoldag/twoldag/internal/faults"
	"github.com/twoldag/twoldag/internal/identity"
	"github.com/twoldag/twoldag/internal/topology"
	"github.com/twoldag/twoldag/internal/wire"
)

// suspectLog records PeerSuspected events and lets tests block until a
// specific peer's circuit opened — the event-driven way to observe a
// Leave broadcast landing.
type suspectLog struct {
	events.Nop
	mu     sync.Mutex
	seen   map[identity.NodeID]struct{}
	signal chan struct{}
}

func newSuspectLog() *suspectLog {
	return &suspectLog{seen: make(map[identity.NodeID]struct{}), signal: make(chan struct{})}
}

func (l *suspectLog) OnPeerSuspected(e events.PeerSuspected) {
	l.mu.Lock()
	l.seen[e.Peer] = struct{}{}
	close(l.signal)
	l.signal = make(chan struct{})
	l.mu.Unlock()
}

func (l *suspectLog) wait(t *testing.T, peer identity.NodeID) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		l.mu.Lock()
		_, ok := l.seen[peer]
		sig := l.signal
		l.mu.Unlock()
		if ok {
			return
		}
		select {
		case <-sig:
		case <-deadline:
			t.Fatalf("peer %v never suspected", peer)
		}
	}
}

// startHosts brings up an n-node cross-host cluster in this process:
// host 0 serves first, the rest serve joining through host 0's
// address. Real TCP listeners, real discovery.
func startHosts(t *testing.T, n int, seed int64, mutate func(id identity.NodeID, cfg *Config)) []*Host {
	t.Helper()
	hosts := make([]*Host, n)
	for i := 0; i < n; i++ {
		cfg := Config{
			ID: identity.NodeID(i), Nodes: n, Seed: seed,
			Gamma: 1, Difficulty: 2,
			RequestTimeout: 2 * time.Second,
		}
		if i > 0 {
			cfg.JoinAddr = hosts[0].Addr()
		}
		if mutate != nil {
			mutate(identity.NodeID(i), &cfg)
		}
		h, err := Start(cfg)
		if err != nil {
			t.Fatalf("starting host %d: %v", i, err)
		}
		hosts[i] = h
		t.Cleanup(func() { _ = h.Close() })
	}
	return hosts
}

// TestStartRejectsBadConfig: Start refuses what the facade refuses —
// a γ no audit of the cluster can reach, a negative trust cap, an
// invalid fault plan or retry policy — before it binds a port or opens
// a data dir.
func TestStartRejectsBadConfig(t *testing.T) {
	retry := faults.RetryPolicy{MaxAttempts: 3, BaseDelay: 20 * time.Millisecond, MaxDelay: 200 * time.Millisecond}
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"gamma past the node count", func(c *Config) { c.Gamma = 7 }, "gamma 7 out of range for 3 nodes"},
		{"gamma equal to the node count", func(c *Config) { c.Gamma = 3 }, "gamma 3 out of range"},
		{"negative gamma", func(c *Config) { c.Gamma = -1 }, "gamma -1 out of range"},
		{"negative trust cap", func(c *Config) { c.TrustCap = -4 }, "TrustCap -4"},
		{"drop rate above one", func(c *Config) { c.Plan = faults.Plan{Seed: 1, DropRate: 1.5} }, "DropRate 1.5"},
		{"retry jitter above one", func(c *Config) { c.Retry = retry; c.Retry.Jitter = 2 }, "Jitter 2"},
		{"negative retry base", func(c *Config) { c.Retry = retry; c.Retry.BaseDelay = -time.Second }, "BaseDelay -1s"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := Config{ID: 0, Nodes: 3, Seed: 7, Gamma: 1, Difficulty: 2, DataDir: dir}
			tc.mutate(&cfg)
			h, err := Start(cfg)
			if err == nil {
				_ = h.Close()
				t.Fatal("Start accepted the config")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Start: %v, want an error naming %q", err, tc.want)
			}
			if entries, _ := os.ReadDir(dir); len(entries) != 0 {
				t.Fatalf("the refused Start wrote %d entries into the data dir", len(entries))
			}
		})
	}
}

func TestHostDirectoryExchange(t *testing.T) {
	hosts := startHosts(t, 3, 7, nil)
	for _, h := range hosts {
		live := h.Live()
		if len(live) != 3 {
			t.Fatalf("host %v sees live %v, want all of 0..2", h.ID(), live)
		}
	}
	// Cross-host traffic: each node seals a block per slot; the flushes
	// resolve only when every live neighbor acked over the sockets.
	ctx := context.Background()
	for slot := uint32(1); slot <= 2; slot++ {
		for _, h := range hosts {
			h.SetSlot(slot)
		}
		type sealed struct {
			h *Host
			d digest.Digest
		}
		var flushes []sealed
		for _, h := range hosts {
			_, d, err := h.Seal([]byte{byte(slot), byte(h.ID())})
			if err != nil {
				t.Fatalf("seal on %v: %v", h.ID(), err)
			}
			flushes = append(flushes, sealed{h, d})
		}
		for _, f := range flushes {
			if err := f.h.Flush(ctx, []digest.Digest{f.d}); err != nil {
				t.Fatalf("flush on %v: %v", f.h.ID(), err)
			}
		}
	}
	// A flush resolving proves each neighbor ingested the digest into
	// its A_i — the ack is synthesized from the receiver's ingest event.
}

func TestHostDynamicJoinReanchors(t *testing.T) {
	const seed = 11
	hosts := startHosts(t, 3, seed, nil)

	// The in-process placement rule is the oracle: same topology, same
	// liveness, same answer.
	oracle, err := topology.Deployment(3, seed)
	if err != nil {
		t.Fatal(err)
	}
	want, err := PlanJoin(oracle, []identity.NodeID{0, 1, 2}, func(identity.NodeID) bool { return true })
	if err != nil {
		t.Fatal(err)
	}

	joiner, err := Start(Config{
		Join: true, JoinAddr: hosts[0].Addr(),
		Nodes: 3, Seed: seed, Gamma: 1, Difficulty: 2,
		RequestTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	defer joiner.Close()
	if joiner.ID() != want.ID || joiner.anchor != want.Anchor {
		t.Fatalf("joiner placed as (%v anchor %v), want (%v anchor %v)",
			joiner.ID(), joiner.anchor, want.ID, want.Anchor)
	}
	// Every member learned the join (Hello fan-out) and can route to
	// the joiner: the joiner's first submit must collect real acks.
	for _, h := range hosts {
		if !h.Topology().Has(want.ID) {
			t.Fatalf("host %v never learned joiner %v", h.ID(), want.ID)
		}
	}
	for _, h := range append(hosts, joiner) {
		h.SetSlot(1)
	}
	if err := sealAndFlush(joiner, []byte("joiner-block")); err != nil {
		t.Fatalf("joiner seal+flush: %v", err)
	}
}

// sealAndFlush seals one block on h and announces it, waiting for every
// live neighbour's acknowledgement.
func sealAndFlush(h *Host, data []byte) error {
	_, d, err := h.Seal(data)
	if err == nil {
		err = h.Flush(context.Background(), []digest.Digest{d})
	}
	return err
}

func TestHostJoinAnchorsPastDeadMember(t *testing.T) {
	const seed = 7
	hosts := startHosts(t, 3, seed, nil)
	// Member 2 dies without a Leave (crash): survivors are told via the
	// harness's silence verb, exactly as the e2e kill path works.
	_ = hosts[2].dev.node.Close()
	hosts[0].MarkDead(2)
	hosts[1].MarkDead(2)

	oracle, err := topology.Deployment(3, seed)
	if err != nil {
		t.Fatal(err)
	}
	want, err := PlanJoin(oracle, []identity.NodeID{0, 1, 2}, func(id identity.NodeID) bool { return id != 2 })
	if err != nil {
		t.Fatal(err)
	}
	if want.Anchor != 1 {
		t.Fatalf("oracle anchor = %v, want 1 (newest live)", want.Anchor)
	}

	joiner, err := Start(Config{
		Join: true, JoinAddr: hosts[0].Addr(),
		Nodes: 3, Seed: seed, Gamma: 1, Difficulty: 2,
		RequestTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	defer joiner.Close()
	if joiner.ID() != want.ID || joiner.anchor != want.Anchor {
		t.Fatalf("joiner placed as (%v anchor %v), want (%v anchor %v): dead members must not anchor",
			joiner.ID(), joiner.anchor, want.ID, want.Anchor)
	}
}

func TestHostGracefulLeaveMarksDead(t *testing.T) {
	logs := map[identity.NodeID]*suspectLog{0: newSuspectLog(), 1: newSuspectLog()}
	hosts := startHosts(t, 3, 7, func(id identity.NodeID, cfg *Config) {
		if l, ok := logs[id]; ok {
			cfg.Observer = l
		}
	})
	if err := hosts[2].Close(); err != nil {
		t.Fatalf("leave: %v", err)
	}
	// The Leave broadcast force-opens 2's circuit on each survivor —
	// no health-tracker failures needed.
	logs[0].wait(t, 2)
	logs[1].wait(t, 2)
	for _, h := range hosts[:2] {
		for _, id := range h.Live() {
			if id == 2 {
				t.Fatalf("host %v still lists 2 live after its leave", h.ID())
			}
		}
	}
}

// TestHostCloseMidRetry closes hosts while announcement retries are in
// flight against a crashed peer and asserts the graceful-shutdown
// ordering drains everything: the flush returns (bounded by the retry
// cap or the close), Close returns, and no goroutine outlives the
// hosts.
func TestHostCloseMidRetry(t *testing.T) {
	baseline := runtime.NumGoroutine()
	retry := faults.RetryPolicy{
		MaxAttempts: 4,
		BaseDelay:   50 * time.Millisecond,
		MaxDelay:    200 * time.Millisecond,
		Jitter:      0.5,
		Seed:        7,
	}
	hosts := startHosts(t, 2, 7, func(id identity.NodeID, cfg *Config) {
		cfg.Retry = retry
		cfg.RequestTimeout = 5 * time.Second
	})
	// Crash host 1 without a Leave: host 0 still believes it live and
	// will retry announcements against the dead listener.
	_ = hosts[1].dev.node.Close()

	_, d, err := hosts[0].Seal([]byte("doomed"))
	if err != nil {
		t.Fatal(err)
	}
	flushDone := make(chan error, 1)
	go func() {
		flushDone <- hosts[0].Flush(context.Background(), []digest.Digest{d})
	}()
	// Close while the flush is mid-retry. Close must cancel the
	// in-flight flush, wait for it, then shut the node down.
	if err := hosts[0].Close(); err != nil {
		t.Fatalf("close mid-retry: %v", err)
	}
	select {
	case err := <-flushDone:
		if err == nil {
			t.Fatal("flush against a dead peer reported success")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("flush still running after Close returned: in-flight verbs not drained")
	}
	// New verbs are refused after close.
	if _, _, err := hosts[0].Seal([]byte("late")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Seal after Close: err = %v, want ErrClosed", err)
	}

	// Manual leak check (no external deps): every transport read loop,
	// dispatch loop and retry timer must be gone.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: baseline %d, now %d\n%s",
				baseline, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// serveOverPipes runs ServeControl for h over a pair of pipes and
// returns its ready line, a request/response round trip, and the loop's
// result. Once the loop returns, both pipes are closed, so a request
// it stopped reading or a response it never wrote fails the round trip
// instead of blocking it.
func serveOverPipes(t *testing.T, h *Host) (ControlReady, func(ControlRequest) ControlResponse, <-chan error) {
	t.Helper()
	reqR, reqW := io.Pipe()
	respR, respW := io.Pipe()
	serveDone := make(chan error, 1)
	go func() {
		err := ServeControl(context.Background(), h, reqR, respW)
		reqR.CloseWithError(err)
		respW.CloseWithError(err)
		serveDone <- err
	}()
	enc := json.NewEncoder(reqW)
	dec := json.NewDecoder(respR)

	var ready ControlReady
	if err := dec.Decode(&ready); err != nil || ready.Event != "ready" || ready.Addr == "" {
		t.Fatalf("ready line = %+v, err %v", ready, err)
	}
	roundTrip := func(req ControlRequest) ControlResponse {
		t.Helper()
		if err := enc.Encode(req); err != nil {
			t.Fatalf("%s request: %v", req.Op, err)
		}
		var resp ControlResponse
		if err := dec.Decode(&resp); err != nil {
			t.Fatalf("%s response: %v", req.Op, err)
		}
		return resp
	}
	return ready, roundTrip, serveDone
}

func TestControlProtocol(t *testing.T) {
	h, err := Start(Config{
		ID: 0, Nodes: 1, Seed: 7, Gamma: 0, Difficulty: 2,
		RequestTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ready, roundTrip, serveDone := serveOverPipes(t, h)

	if resp := roundTrip(ControlRequest{Op: "slot", Slot: 3}); !resp.OK {
		t.Fatalf("slot: %+v", resp)
	}
	seal := roundTrip(ControlRequest{Op: "seal", Data: []byte("hello")})
	if !seal.OK || seal.Ref == nil || seal.Ref.Seq != 0 || seal.Digest == "" {
		t.Fatalf("seal: %+v", seal)
	}
	if resp := roundTrip(ControlRequest{Op: "flush", Digests: []string{seal.Digest}}); !resp.OK {
		t.Fatalf("flush: %+v", resp)
	}
	info := roundTrip(ControlRequest{Op: "info"})
	if !info.OK || info.Addr != ready.Addr || len(info.Live) != 1 {
		t.Fatalf("info: %+v", info)
	}
	if resp := roundTrip(ControlRequest{Op: "warp"}); resp.OK || resp.Err == "" {
		t.Fatalf("unknown op accepted: %+v", resp)
	}
	if resp := roundTrip(ControlRequest{Op: "leave"}); !resp.OK {
		t.Fatalf("leave: %+v", resp)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve loop: %v", err)
	}
	// The host is closed by the leave.
	if _, _, err := h.Seal(nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("host alive after leave: %v", err)
	}
}

// TestControlSealsLongestBody: a seal request carrying a body of
// block.MaxBodyLen bytes, which Build accepts, is a line of ~22 MB once
// JSON has base64-encoded it. The control loop must read it, answer it
// with the new block, and go on serving, not end the host.
func TestControlSealsLongestBody(t *testing.T) {
	h, err := Start(Config{ID: 0, Nodes: 1, Seed: 7, Gamma: 0, Difficulty: 0, RequestTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	_, roundTrip, serveDone := serveOverPipes(t, h)
	seal := roundTrip(ControlRequest{Op: "seal", Data: make([]byte, block.MaxBodyLen)})
	if !seal.OK || seal.Ref == nil || seal.Digest == "" {
		t.Fatalf("seal of a %d-byte body: %+v", block.MaxBodyLen, seal)
	}
	if info := roundTrip(ControlRequest{Op: "info"}); !info.OK || len(info.Live) != 1 {
		t.Fatalf("info after the seal: %+v", info)
	}
	if resp := roundTrip(ControlRequest{Op: "leave"}); !resp.OK {
		t.Fatalf("leave: %+v", resp)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve loop: %v", err)
	}
}

// TestControlSurvivesOverlongLine: a line longer than maxControlLine
// draws one "bad request" answer, and the loop serves the next line —
// it does not end and take the host down with it. The limit is lowered
// to 64 KiB for the test, so a seal of 128 KiB is over it.
func TestControlSurvivesOverlongLine(t *testing.T) {
	defer func(n int) { maxControlLine = n }(maxControlLine)
	maxControlLine = 1 << 16
	h, err := Start(Config{ID: 0, Nodes: 1, Seed: 7, Gamma: 0, Difficulty: 0, RequestTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	_, roundTrip, serveDone := serveOverPipes(t, h)
	resp := roundTrip(ControlRequest{Op: "seal", Data: make([]byte, 1<<17)})
	if resp.OK || !strings.HasPrefix(resp.Err, "bad request: line longer than") {
		t.Fatalf("over-long seal line: %+v, want a bad request", resp)
	}
	if info := roundTrip(ControlRequest{Op: "info"}); !info.OK || len(info.Live) != 1 {
		t.Fatalf("info after the over-long line: %+v", info)
	}
	if resp := roundTrip(ControlRequest{Op: "leave"}); !resp.OK {
		t.Fatalf("leave: %+v", resp)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve loop: %v", err)
	}
}

// FuzzControlLines feeds hostile bytes, as lines, to the control loop of
// a fresh durable host on loopback. The loop must neither panic nor
// hang, must answer every non-empty line it reads up to and including a
// leave with exactly one response line, and must answer a line that is
// not a request with "bad request".
func FuzzControlLines(f *testing.F) {
	for _, seed := range []string{
		"{\"op\":\"slot\",\"slot\":2}\n{\"op\":\"seal\",\"data\":\"aGk=\"}\n{\"op\":\"state\"}",
		"{\"op\":\"submit\",\"data\":\"eA==\"}\n{\"op\":\"latest\"}\n{\"op\":\"compact\"}",
		"{\"op\":\"flush\",\"digests\":[\"00\",\"zz\"]}\n{\"op\":\"audit\",\"ref\":{\"node\":0,\"seq\":9}}",
		"{\"op\":\"audit\"}\n\r\n{\"op\":\"silence\",\"node\":4}\n{\"op\":\"info\"}\nnull",
		"{\"op\":\"leave\"}\n{\"op\":\"seal\"}",
		"not json\n{\"op\":\n\"leave\"\n\x00\xff",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		h, err := Start(Config{
			ID: 0, Nodes: 1, Seed: 7, Gamma: 0, Difficulty: 2,
			RequestTimeout: 50 * time.Millisecond,
			DataDir:        t.TempDir(),
		})
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		done := make(chan error, 1)
		go func() { done <- ServeControl(context.Background(), h, bytes.NewReader(in), &out) }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("the control loop hangs")
		}
		// The lines it had to answer, split as it splits them, and which
		// of them are not requests.
		var bad []bool
		sc := bufio.NewScanner(bytes.NewReader(in))
		sc.Buffer(make([]byte, 0, 1<<16), maxControlLine)
		for sc.Scan() {
			if len(sc.Bytes()) == 0 {
				continue
			}
			var req ControlRequest
			err := json.Unmarshal(sc.Bytes(), &req)
			bad = append(bad, err != nil)
			if err == nil && req.Op == "leave" {
				break
			}
		}
		lines := bytes.Split(bytes.TrimSuffix(out.Bytes(), []byte("\n")), []byte("\n"))
		if len(lines) != 1+len(bad) {
			t.Fatalf("%d lines out (the ready line and responses) for %d lines to answer:\n%s", len(lines), len(bad), out.Bytes())
		}
		for i, line := range lines[1:] {
			var resp ControlResponse
			if err := json.Unmarshal(line, &resp); err != nil {
				t.Fatalf("response %d is no response: %q: %v", i, line, err)
			}
			if got := strings.HasPrefix(resp.Err, "bad request"); got != bad[i] {
				t.Fatalf("response %d: %+v, want a bad request: %v", i, resp, bad[i])
			}
		}
	})
}

// frameLog records a host's injected frame losses and retried
// announcements, signalling each retry.
type frameLog struct {
	events.Nop
	mu      sync.Mutex
	dropped []wire.Kind
	retries chan int
}

func (l *frameLog) OnMessageDropped(e events.MessageDropped) {
	l.mu.Lock()
	l.dropped = append(l.dropped, wire.Kind(e.Kind))
	l.mu.Unlock()
}

func (l *frameLog) OnRetryAttempted(e events.RetryAttempted) {
	if e.Announce {
		l.retries <- e.Attempt
	}
}

// TestHostFlushRetriesAsBatches: a Flush whose first announcement is
// lost re-sends it as a one-digest DigestBatch frame, like the first
// send, and completes once a re-send gets through. The neighbor is
// off the air for one slot of the announcer's fault plan; the flush
// starts inside it and the slot moves on once a re-sent frame has been
// lost too.
func TestHostFlushRetriesAsBatches(t *testing.T) {
	// Sized past the policy's 9 retries, so a retry event never blocks
	// the flush once the test stops reading.
	log := &frameLog{retries: make(chan int, 16)}
	hosts := startHosts(t, 2, 7, func(id identity.NodeID, cfg *Config) {
		if id != 0 {
			return
		}
		cfg.Retry = faults.RetryPolicy{MaxAttempts: 10, BaseDelay: 5 * time.Millisecond, MaxDelay: 20 * time.Millisecond, Seed: 7}
		cfg.Plan = faults.Plan{Crashes: []faults.CrashWindow{{Node: 1, From: 5, Until: 6}}}
		cfg.Observer = log
	})
	hosts[0].SetSlot(5)
	_, d, err := hosts[0].Seal([]byte("lost, then re-sent"))
	if err != nil {
		t.Fatal(err)
	}
	flushed := make(chan error, 1)
	go func() { flushed <- hosts[0].Flush(context.Background(), []digest.Digest{d}) }()
	// Attempt 3's retry event fires after attempt 2's re-send was lost.
	for attempt := 0; attempt < 3; {
		select {
		case attempt = <-log.retries:
		case <-time.After(5 * time.Second):
			t.Fatal("the lost announcement was never retried")
		}
	}
	hosts[0].SetSlot(6)
	if err := <-flushed; err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if got, ok := hosts[1].dev.node.Engine().Cache().Get(0); !ok || got != d {
		t.Fatal("the neighbor's A_i does not hold the flushed digest")
	}
	log.mu.Lock()
	defer log.mu.Unlock()
	if len(log.dropped) < 2 {
		t.Fatalf("%d frames lost, want the first send and a re-send", len(log.dropped))
	}
	for _, k := range log.dropped {
		if k != wire.KindDigestBatch {
			t.Fatalf("lost frames %v: an announcement left as %v", log.dropped, k)
		}
	}
}

// ackLog records, per acknowledging neighbour, the digests a host's
// DigestAcks named.
type ackLog struct {
	events.Nop
	mu    sync.Mutex
	acked map[identity.NodeID][]digest.Digest
}

func (l *ackLog) OnDigestBatchDelivered(e events.DigestBatchDelivered) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.acked[e.To] = append(l.acked[e.To], e.Digests...)
}

func (l *ackLog) ackedBy(id identity.NodeID, d digest.Digest) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Contains(l.acked[id], d)
}

// TestHostIgnoresUnsolicitedPeerList: a PeerList frame nobody asked for
// (correlation 0) naming a live member dead at a bogus address changes
// nothing on the host that receives it — the directory, its liveness
// view and the member's route all stay, so a Seal+Flush still waits
// for and gets the member's acknowledgement.
func TestHostIgnoresUnsolicitedPeerList(t *testing.T) {
	acks := &ackLog{acked: make(map[identity.NodeID][]digest.Digest)}
	const receiver = 1
	hosts := startHosts(t, 3, 7, func(id identity.NodeID, cfg *Config) {
		if id == receiver {
			cfg.Observer = acks
		}
	})
	r := hosts[receiver]
	nbs := r.Topology().Neighbors(r.ID())
	if len(nbs) == 0 {
		t.Fatal("the receiver has no radio neighbour; test has no power")
	}
	victim := nbs[0]
	var sender *Host
	for _, h := range hosts {
		if h != r && h.ID() != victim {
			sender = h
		}
	}
	live := r.Live()
	if !slices.Contains(live, victim) {
		t.Fatalf("victim %v not live before the push: %v", victim, live)
	}

	pos, _ := r.Topology().Position(victim)
	hello := wire.NewHello(r.ID(), sender.ID(), wire.HelloInfo{Anchor: wire.NoAnchor}, 0, sender.dev.node.NextNonce())
	push := wire.NewPeerList(hello, []wire.PeerEntry{{
		ID: victim, Live: false, Anchor: wire.NoAnchor, X: pos.X, Y: pos.Y, Addr: "127.0.0.1:1",
	}})
	if push.Corr != 0 || push.From != sender.ID() || push.To != r.ID() {
		t.Fatalf("push frame %v→%v corr %d, want %v→%v corr 0", push.From, push.To, push.Corr, sender.ID(), r.ID())
	}
	if err := sender.dev.node.Send(context.Background(), r.ID(), push); err != nil {
		t.Fatal(err)
	}
	// The receiver handles frames of one connection in order: once it
	// has answered a Hello sent after the push, the push was handled.
	if err := sender.helloExchange(r.ID()); err != nil {
		t.Fatal(err)
	}

	if got := r.Live(); !slices.Equal(got, live) {
		t.Fatalf("an unsolicited PeerList changed Live(): %v, was %v", got, live)
	}
	r.SetSlot(1)
	_, d, err := r.Seal([]byte("after the push"))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Flush(context.Background(), []digest.Digest{d}); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if !acks.ackedBy(victim, d) {
		t.Fatalf("Flush returned without %v's acknowledgement", victim)
	}
}
