package faults_test

import (
	"testing"

	"github.com/twoldag/twoldag/internal/events"
	"github.com/twoldag/twoldag/internal/faults"
)

func TestHealthCircuitOpensAtThreshold(t *testing.T) {
	rec := &recorder{}
	h := faults.NewHealth(1, rec)

	h.ReportFailure(9)
	if h.Suspected(9) {
		t.Fatal("suspected after one failure")
	}
	h.ReportFailure(9)
	if !h.Suspected(9) {
		t.Fatal("not suspected after threshold failures")
	}
	// Further failures keep the circuit open without re-announcing it.
	h.ReportFailure(9)
	rec.mu.Lock()
	suspects := append([]events.PeerSuspected(nil), rec.suspects...)
	rec.mu.Unlock()
	if len(suspects) != 1 {
		t.Fatalf("PeerSuspected fired %d times, want once", len(suspects))
	}
	if suspects[0] != (events.PeerSuspected{Node: 1, Peer: 9, Failures: 2}) {
		t.Fatalf("PeerSuspected = %+v", suspects[0])
	}

	h.ReportSuccess(9)
	if h.Suspected(9) {
		t.Fatal("success did not close the circuit")
	}
	rec.mu.Lock()
	recovers := append([]events.PeerRecovered(nil), rec.recovers...)
	rec.mu.Unlock()
	if len(recovers) != 1 || recovers[0] != (events.PeerRecovered{Node: 1, Peer: 9}) {
		t.Fatalf("PeerRecovered = %+v, want one {1 9}", recovers)
	}
	// A success on a healthy peer stays silent.
	h.ReportSuccess(9)
	rec.mu.Lock()
	n := len(rec.recovers)
	rec.mu.Unlock()
	if n != 1 {
		t.Fatalf("PeerRecovered fired %d times, want once", n)
	}
}

func TestHealthSuccessResetsFailureStreak(t *testing.T) {
	h := faults.NewHealth(1, nil)
	h.ReportFailure(5)
	h.ReportSuccess(5)
	h.ReportFailure(5)
	if h.Suspected(5) {
		t.Fatal("non-consecutive failures opened the circuit")
	}
	h.ReportFailure(5)
	if !h.Suspected(5) {
		t.Fatal("consecutive failures after a reset did not open the circuit")
	}
}

func TestHealthTracksPeersIndependently(t *testing.T) {
	h := faults.NewHealth(1, nil)
	for i := 0; i < 2; i++ {
		h.ReportFailure(5)
		h.ReportFailure(6)
	}
	if !h.Suspected(5) || !h.Suspected(6) {
		t.Fatal("both peers should be suspected")
	}
	h.ReportSuccess(5)
	if h.Suspected(5) || !h.Suspected(6) {
		t.Fatal("recovery of one peer leaked to the other")
	}
}

func TestHealthNilReceiverIsSafe(t *testing.T) {
	var h *faults.Health
	h.ReportFailure(1)
	h.ReportSuccess(1)
	h.Suspect(1)
	if h.Suspected(1) {
		t.Fatal("nil tracker suspects")
	}
}

func TestHealthSuspectForcesOpen(t *testing.T) {
	rec := &recorder{}
	h := faults.NewHealth(1, rec)

	h.Suspect(9)
	if !h.Suspected(9) {
		t.Fatal("Suspect did not open the circuit")
	}
	// Re-suspecting an open circuit stays silent.
	h.Suspect(9)
	rec.mu.Lock()
	n := len(rec.suspects)
	rec.mu.Unlock()
	if n != 1 {
		t.Fatalf("PeerSuspected fired %d times, want once", n)
	}
	// The usual recovery path still re-admits the peer.
	h.ReportSuccess(9)
	if h.Suspected(9) {
		t.Fatal("success did not close a force-opened circuit")
	}
}
