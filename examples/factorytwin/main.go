// Factory digital twin: the motivating scenario of the paper's
// introduction. Machines on a factory floor stream vibration readings;
// the factory's digital twin audits readings before trusting them for
// maintenance decisions, and detects when a reading's provenance cannot
// be established. The compliance sweep at the end fans its audits out
// over GOMAXPROCS goroutines in one AuditMany call.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand"

	"github.com/twoldag/twoldag"
)

func main() {
	const (
		machines = 18
		gamma    = 4
		shifts   = 8
	)
	rt, err := twoldag.New(
		twoldag.WithNodes(machines),
		twoldag.WithGamma(gamma),
		twoldag.WithSeed(7),
	)
	if err != nil {
		log.Fatalf("factory network: %v", err)
	}
	defer rt.Close()

	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	devices := rt.Nodes()
	type reading struct {
		ref   twoldag.Ref
		shift int
		mm    float64
	}
	var lake []reading

	// Eight shifts of vibration telemetry, one batch per shift.
	for shift := 1; shift <= shifts; shift++ {
		rt.AdvanceSlot()
		batch := make([]twoldag.Submission, len(devices))
		mms := make([]float64, len(devices))
		for i, m := range devices {
			mm := 0.2 + rng.Float64()*0.3
			if shift == 3 && m == devices[3] {
				mm = 2.9 // anomalous spike on machine 3, shift 3
			}
			mms[i] = mm
			batch[i] = twoldag.Submission{
				Node: m,
				Data: []byte(fmt.Sprintf("vibration=%.2fmm machine=%v shift=%d", mm, m, shift)),
			}
		}
		refs, err := rt.SubmitBatch(ctx, batch)
		if err != nil {
			log.Fatalf("telemetry: %v", err)
		}
		for i, ref := range refs {
			lake = append(lake, reading{ref: ref, shift: shift, mm: mms[i]})
		}
	}

	// The digital twin spots the spike and audits its provenance before
	// scheduling maintenance.
	twin := devices[machines-1]
	var spike reading
	for _, r := range lake {
		if r.mm > 2 {
			spike = r
			break
		}
	}
	fmt.Printf("digital twin: anomalous reading %.2f mm at %v (shift %d) — auditing\n", spike.mm, spike.ref, spike.shift)
	res, err := rt.Audit(ctx, twin, spike.ref)
	switch {
	case errors.Is(err, twoldag.ErrTampered):
		fmt.Println("  VERDICT: reading tampered — maintenance order rejected")
	case errors.Is(err, twoldag.ErrNoConsensus):
		fmt.Println("  VERDICT: provenance unverifiable — holding decision")
	case err != nil:
		log.Fatalf("audit: %v", err)
	default:
		fmt.Printf("  VERDICT: genuine (vouched by %d machines: %v)\n", len(res.Vouchers), res.Vouchers)
		fmt.Printf("  evidence path spans %d blocks, cost %d messages\n", len(res.Path), res.MessagesSent+res.MessagesReceived)
		fmt.Println("  maintenance scheduled for machine", spike.ref.Node)
	}

	// Periodic compliance sweep: one reading per shift from the older
	// half of the lake — readings become auditable once the DAG has
	// grown past them — audited concurrently in one AuditMany call.
	reqs := make([]twoldag.AuditRequest, 0, shifts/2)
	for shift := 1; shift <= shifts/2; shift++ {
		r := lake[(shift-1)*machines+rng.Intn(machines)]
		if r.ref.Node == twin {
			r = lake[(shift-1)*machines]
		}
		reqs = append(reqs, twoldag.AuditRequest{Validator: twin, Ref: r.ref})
	}
	okCount := 0
	for _, out := range rt.AuditMany(ctx, reqs) {
		if out.Err == nil && out.Result.Consensus {
			okCount++
		}
	}
	fmt.Printf("compliance sweep: %d/%d sampled readings verified\n", okCount, len(reqs))
}
