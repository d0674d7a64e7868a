package twoldag

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/twoldag/twoldag/internal/node"
	"github.com/twoldag/twoldag/internal/transport"
	"github.com/twoldag/twoldag/internal/wire"
)

// serveWatch wraps a device's in-memory endpoint and watches the PoP
// reads its node serves on the requesters' goroutines: how many began,
// and how many began or ended after its device's Silence had returned.
// Each serve is held for delay first, so a Silence that does not wait
// for the serves in flight shows.
type serveWatch struct {
	transport.Transport
	delay    time.Duration
	silenced atomic.Bool
	serves   atomic.Int64
	late     atomic.Int64
}

func (w *serveWatch) SetResponseHandler(f func(*wire.Message)) {
	w.Transport.SetResponseHandler(func(m *wire.Message) {
		if m.Kind.IsResponse() {
			f(m)
			return
		}
		w.serves.Add(1)
		if w.silenced.Load() {
			w.late.Add(1)
		}
		time.Sleep(w.delay)
		f(m)
		if w.silenced.Load() {
			w.late.Add(1)
		}
	})
}

// watchFabric is the cluster's fabric with every endpoint it creates
// from now on watched.
type watchFabric struct {
	fabric
	delay   time.Duration
	mu      sync.Mutex
	watches []*serveWatch
}

func (f *watchFabric) endpoint(id NodeID) (transport.Transport, error) {
	ep, err := f.fabric.endpoint(id)
	if err != nil {
		return nil, err
	}
	w := &serveWatch{Transport: ep, delay: f.delay}
	f.mu.Lock()
	f.watches = append(f.watches, w)
	f.mu.Unlock()
	return w, nil
}

func (f *watchFabric) newest() *serveWatch {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.watches[len(f.watches)-1]
}

// churnAuditor runs a Cluster's audits through nodes it looks up in a
// directory of its own. Runtime keeps membership changes off the audit
// path (the Cluster's device map is not locked), so this directory is
// what lets audits run while a device is silenced and restarted.
type churnAuditor struct {
	Runtime
	mu    sync.RWMutex
	nodes map[NodeID]*node.Node
}

// set points validator at n; nil takes it out.
func (a *churnAuditor) set(validator NodeID, n *node.Node) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if n == nil {
		delete(a.nodes, validator)
	} else {
		a.nodes[validator] = n
	}
}

func (a *churnAuditor) Audit(ctx context.Context, validator NodeID, ref Ref) (*AuditResult, error) {
	a.mu.RLock()
	n := a.nodes[validator]
	a.mu.RUnlock()
	if n == nil {
		return nil, fmt.Errorf("validator %v is silenced", validator)
	}
	return n.Audit(ctx, ref)
}

// TestAuditsRaceSilenceAndRestart: on a durable in-memory Cluster,
// audits fan out through auditMany (the code AuditMany runs) — each
// device auditing its own blocks and others' — while one device is
// silenced and restarted over and over. The in-memory fabric serves
// REQ_CHILD and GET_BLOCK on the requester's goroutine, so a Silence
// must wait for the serves in flight on its device before the backend
// they read closes, and the device's audits of its own blocks re-enter
// the endpoint its Silence is closing. No audit hangs, each reaches
// consensus or returns an error, and no serve runs after its device's
// Silence returned.
func TestAuditsRaceSilenceAndRestart(t *testing.T) {
	setGOMAXPROCS(t, 4)
	rt := newRuntime(t, WithNodes(8), WithGamma(2), WithSeed(7), WithDifficulty(0),
		WithDataDir(t.TempDir()), WithRequestTimeout(100*time.Millisecond))
	c := rt.(*Cluster)
	refs := fillBatch(t, rt, 4)
	ids := rt.Nodes()
	victim := ids[1]

	// One bounce before the churn puts the victim on a watched endpoint.
	watch := &watchFabric{fabric: c.fab, delay: 200 * time.Microsecond}
	c.fab = watch
	if err := c.Silence(victim); err != nil {
		t.Fatal(err)
	}
	if err := c.Restart(victim); err != nil {
		t.Fatal(err)
	}
	// Each device audits the first two slots' blocks of its own, of the
	// victim and of its successor in ID order.
	auditor := &churnAuditor{Runtime: rt, nodes: make(map[NodeID]*node.Node)}
	var reqs []AuditRequest
	for i, id := range ids {
		auditor.nodes[id] = c.devs[id].Node()
		for _, ref := range refs[:2*len(ids)] {
			if ref.Node == id || ref.Node == victim || ref.Node == ids[(i+1)%len(ids)] {
				reqs = append(reqs, AuditRequest{Validator: id, Ref: ref})
			}
		}
	}

	ctx := context.Background()
	stop := make(chan struct{})
	done := make(chan struct{})
	var rounds, agreed, failed atomic.Int64
	roundDone := make(chan struct{}, 1) // set at the end of each round
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, out := range auditMany(ctx, auditor, reqs) {
				switch {
				case out.Err != nil:
					failed.Add(1)
				case out.Result == nil || !out.Result.Consensus:
					t.Errorf("audit %v by %v: no consensus and no error", out.Request.Ref, out.Request.Validator)
				default:
					agreed.Add(1)
				}
			}
			rounds.Add(1)
			select {
			case roundDone <- struct{}{}:
			default:
			}
		}
	}()
	// stopAudits ends the audits on every path out of the test, before
	// the cluster closes.
	var halt sync.Once
	stopAudits := func() {
		halt.Do(func() { close(stop) })
		select {
		case <-done:
		case <-time.After(time.Minute):
			t.Error("audits still running a minute after the churn ended")
		}
	}
	defer stopAudits()
	// nextRound returns once a round of audits that began after the call
	// has ended: the end of the round in progress, then of the next.
	nextRound := func() {
		t.Helper()
		select {
		case <-roundDone:
		default:
		}
		for range 2 {
			select {
			case <-roundDone:
			case <-time.After(time.Minute):
				t.Fatal("a round of audits hung")
			}
		}
	}

	for i := 0; i < 4; i++ {
		w := watch.newest()
		auditor.set(victim, nil)
		if err := c.Silence(victim); err != nil {
			t.Fatal(err)
		}
		w.silenced.Store(true)
		nextRound()
		if err := c.Restart(victim); err != nil {
			t.Fatal(err)
		}
		auditor.set(victim, c.devs[victim].Node())
		nextRound()
	}
	stopAudits()

	var serves, late int64
	for _, w := range watch.watches {
		serves += w.serves.Load()
		late += w.late.Load()
	}
	t.Logf("%d rounds of %d audits: %d agreed, %d failed; the churned device served %d requests directly",
		rounds.Load(), len(reqs), agreed.Load(), failed.Load(), serves)
	if late != 0 {
		t.Fatalf("%d serves began or ended after their device's Silence returned", late)
	}
	if serves == 0 || agreed.Load() == 0 {
		t.Fatalf("nothing exercised: %d direct serves, %d audits agreed", serves, agreed.Load())
	}
}

// TestAuditsRaceReRegistration: on a durable in-memory Cluster, one
// device is silenced and restarted over and over while every device
// audits the first of three slots the cluster sealed just before — the
// churned device's block among them, sealed by the engine its restart
// replaces. First checks of those headers in the shared verification
// cache look the churned device's signer up there while its new engine
// registers. Every audit reaches consensus or returns an error, and
// once the device is back every other device's audit of its block
// reaches consensus.
func TestAuditsRaceReRegistration(t *testing.T) {
	setGOMAXPROCS(t, 4)
	rt := newRuntime(t, WithNodes(8), WithGamma(2), WithSeed(7), WithDifficulty(0),
		WithDataDir(t.TempDir()), WithRequestTimeout(100*time.Millisecond))
	c := rt.(*Cluster)
	ids := rt.Nodes()
	victim := ids[1]
	auditor := &churnAuditor{Runtime: rt, nodes: make(map[NodeID]*node.Node)}
	for _, id := range ids {
		auditor.nodes[id] = c.devs[id].Node()
	}
	ctx := context.Background()
	var agreed, failed int
	for i := 0; i < 4; i++ {
		fresh := fillBatch(t, rt, 3)[:len(ids)]
		var reqs []AuditRequest
		var own Ref
		for _, ref := range fresh {
			if ref.Node == victim {
				own = ref
			}
			for _, id := range ids {
				if id != ref.Node {
					reqs = append(reqs, AuditRequest{Validator: id, Ref: ref})
				}
			}
		}
		outs := make(chan []AuditOutcome, 1)
		go func() { outs <- auditMany(ctx, auditor, reqs) }()
		auditor.set(victim, nil)
		if err := c.Silence(victim); err != nil {
			t.Fatal(err)
		}
		if err := c.Restart(victim); err != nil {
			t.Fatal(err)
		}
		auditor.set(victim, c.devs[victim].Node())
		before := agreed
		for _, out := range <-outs {
			switch {
			case out.Err != nil:
				failed++
			case out.Result == nil || !out.Result.Consensus:
				t.Errorf("audit %v by %v: no consensus and no error", out.Request.Ref, out.Request.Validator)
			default:
				agreed++
			}
		}
		if agreed == before {
			t.Fatalf("round %d: none of %d audits agreed", i, len(reqs))
		}
		for _, id := range ids {
			if id == victim {
				continue
			}
			if res, err := auditor.Audit(ctx, id, own); err != nil || !res.Consensus {
				t.Fatalf("round %d: audit of %v by %v after the restart: %v", i, own, id, err)
			}
		}
	}
	t.Logf("during the churn %d audits agreed, %d failed", agreed, failed)
}
