package cluster

import (
	"context"
	"fmt"
	"io"
	"net"
	"slices"
	"testing"
	"time"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/identity"
)

// TestAuditRoutesAroundUnansweringPeer: a neighbour that takes frames
// but never answers costs an audit one request timeout per question put
// to it, not the whole audit. Four hosts (γ = 2) seal three slots; then
// host 0 reaches host 2 at a listener that reads and discards
// everything. Its audit of n1#0 asks n2, waits out the timeout, and
// reaches consensus through n0 and n3.
func TestAuditRoutesAroundUnansweringPeer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go io.Copy(io.Discard, c)
		}
	}()
	hosts := startHosts(t, 4, 7, func(_ identity.NodeID, cfg *Config) {
		cfg.Gamma = 2
		cfg.RequestTimeout = 500 * time.Millisecond
	})
	for slot := uint32(1); slot <= 3; slot++ {
		for _, h := range hosts {
			h.SetSlot(slot)
			if err := sealAndFlush(h, []byte(fmt.Sprintf("reading %v@%d", h.ID(), slot))); err != nil {
				t.Fatal(err)
			}
		}
	}
	const silent = identity.NodeID(2)
	hosts[0].tn.SetPeer(silent, ln.Addr().String())
	res, err := hosts[0].Audit(context.Background(), block.Ref{Node: 1, Seq: 0})
	if err != nil || !res.Consensus {
		t.Fatalf("audit: consensus %v, err %v", res != nil && res.Consensus, err)
	}
	if res.Timeouts < 1 || slices.Contains(res.Vouchers, silent) {
		t.Fatalf("timeouts %d, vouchers %v: the audit did not route around %v", res.Timeouts, res.Vouchers, silent)
	}
}
