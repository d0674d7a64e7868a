package sim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/twoldag/twoldag/internal/attack"
	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/events"
	"github.com/twoldag/twoldag/internal/identity"
	"github.com/twoldag/twoldag/internal/par"
)

// reportHash is the SHA-256 of a canonical encoding of r: every field
// but Mem (process heap statistics, not a function of the Config), as
// JSON in declaration order.
func reportHash(t *testing.T, r *Report) string {
	t.Helper()
	cp := *r
	cp.Mem = nil
	enc, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(enc)
	return hex.EncodeToString(sum[:])
}

// TestReportGolden pins the simulator's Report bit for bit across
// refactors of the slot scheduler: the hashes were taken on an earlier
// scheduler and every change since must reproduce them. The inputs are
// the churn run (silent malicious nodes, retention accounting, a
// mid-run Silence and JoinNode) at GOMAXPROCS 1 and 4, and a capped
// trust store under randomized generation periods.
func TestReportGolden(t *testing.T) {
	periodic := func(procs int) *Report {
		t.Helper()
		setGOMAXPROCS(t, procs)
		cfg := smallConfig(7)
		cfg.RandomPeriodMax = 3
		cfg.TrustCap = 8
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	const (
		churnWant    = "3c88cb501fccf24cbbd37e99581adf74b025ff99d532869ac73086ae768391a6"
		periodicWant = "39d4065b41dc2793102f07f101d95c48f410c7490a4c647d8ab8b5ce9959265d"
	)
	for _, procs := range []int{1, 4} {
		if got := reportHash(t, churnRun(t, procs)); got != churnWant {
			t.Errorf("churn run, GOMAXPROCS=%d: report hash %s, want %s", procs, got, churnWant)
		}
		if got := reportHash(t, periodic(procs)); got != periodicWant {
			t.Errorf("trust cap + random periods, GOMAXPROCS=%d: report hash %s, want %s", procs, got, periodicWant)
		}
	}
}

// outcomeLog records every audit's verdict and cost from the event
// stream, plus the REQ_CHILD hops, for any order of delivery.
type outcomeLog struct {
	events.Nop
	mu       sync.Mutex
	outcomes []string
	hops     atomic.Int64
}

func (o *outcomeLog) OnAuditHop(events.AuditHop) { o.hops.Add(1) }

func (o *outcomeLog) OnConsensusReached(e events.ConsensusReached) {
	o.record(fmt.Sprintf("%v %v ok vouchers=%v path=%d msgs=%d trust=%d",
		e.Validator, e.Target, e.Vouchers, e.PathLen, e.Messages, e.TrustHits))
}

func (o *outcomeLog) OnAuditFailed(e events.AuditFailed) {
	o.record(fmt.Sprintf("%v %v failed", e.Validator, e.Target))
}

func (o *outcomeLog) record(s string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.outcomes = append(o.outcomes, s)
}

// TestAttackAccountingGolden pins what the size model charges and what
// each audit concludes under each malicious behaviour: the consensus
// series, the per-node transmissions and every audit's verdict, path,
// message count and vouchers (error texts are left out). Three of 12
// nodes misbehave; H_i is off, so every audit walks the network and
// its cost does not depend on which audit ran first. A reply is
// charged only when it is sent: an eclipsing node is charged nothing
// for a validator it shuts out, and the eclipse run silences one
// eclipsing node mid-run, which answers nothing and is charged nothing. After the slots, one honest validator runs 24 audits
// at once through its one fetcher, which -race checks.
func TestAttackAccountingGolden(t *testing.T) {
	for _, tc := range []struct {
		kind    attack.Kind
		silence bool
		want    string
	}{
		{attack.KindSilent, false, "a0cfded6d90fd1cfc605f1a6f41710fb4e66cf87aaf7da3e77a21253dd45b493"},
		{attack.KindCorrupt, false, "0e8cb14074022ff67167e8db87f3df035ba0a6598d3d337d5f15d650035600ed"},
		{attack.KindEclipse, true, "3df3b34d636cbc11a8f229bf79aec672e17ab57e8e847820f658d1a6a7d0cf9f"},
	} {
		t.Run(string(tc.kind), func(t *testing.T) {
			setGOMAXPROCS(t, 4)
			log := &outcomeLog{}
			cfg := smallConfig(11)
			cfg.Gamma = 2
			cfg.Malicious = 3
			cfg.Behavior = tc.kind
			cfg.DisableTrust = true
			cfg.Observer = log
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.RunSlots(cfg.Slots / 2); err != nil {
				t.Fatal(err)
			}
			if tc.silence {
				if err := s.Silence(s.MaliciousNodes()[0]); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.RunSlots(cfg.Slots - cfg.Slots/2); err != nil {
				t.Fatal(err)
			}
			var validator identity.NodeID
			for _, id := range s.ids {
				if !s.IsMalicious(id) && !s.Silenced(id) {
					validator = id
					break
				}
			}
			var targets []block.Ref
			for i := 0; i < s.BlockCount() && len(targets) < 24; i++ {
				if ref, _, _ := s.BlockAt(i); ref.Node != validator {
					targets = append(targets, ref)
				}
			}
			par.ForEach(len(targets), func(k int) {
				_, _ = s.AuditFrom(context.Background(), validator, targets[k])
			})
			rep := s.Finalize()
			slices.Sort(log.outcomes)
			enc, err := json.Marshal(struct {
				AvgConsensusBits, NodeCommBits []int64
				Audits, Failures               int
				Hops                           int64
				Outcomes                       []string
			}{rep.AvgConsensusBits, rep.NodeCommBits, rep.Audits, rep.Failures, log.hops.Load(), log.outcomes})
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(enc)
			got := hex.EncodeToString(sum[:])
			t.Logf("%s: %d audits, %d failed, %d REQ_CHILD hops, consensus bits/node %d",
				tc.kind, rep.Audits, rep.Failures, log.hops.Load(), rep.AvgConsensusBits[len(rep.AvgConsensusBits)-1])
			if rep.Audits == 0 || rep.Failures == 0 || rep.Failures == rep.Audits {
				t.Fatalf("%d audits, %d failed: the run pins no mixture of verdicts", rep.Audits, rep.Failures)
			}
			if got != tc.want {
				t.Errorf("%s: accounting hash %s, want %s", tc.kind, got, tc.want)
			}
		})
	}
}
