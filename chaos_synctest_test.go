//go:build goexperiment.synctest

package twoldag

import (
	"testing"
	"testing/synctest"
)

// TestChaosCountersAreDeterministicBubbled runs the chaos counter run
// on synctest's fake clock, where retry backoffs and acknowledgement
// deadlines fire in protocol time whatever the host's speed, and
// requires every run's counters to equal the first's. synctest.Run
// returns only once every goroutine of the run has exited, so each run
// also checks that Close leaves none behind. Run it with
// GOEXPERIMENT=synctest until the module's Go version has synctest
// without the experiment.
func TestChaosCountersAreDeterministicBubbled(t *testing.T) {
	const runs = 100
	// In go1.24 the race detector sees no edge from a bubble's goroutine
	// to synctest.Run's return, so each result comes back on a channel.
	result := make(chan chaosCounts, 1)
	var first chaosCounts
	for i := 0; i < runs; i++ {
		synctest.Run(func() { result <- chaosCounterRun(t) })
		if t.Failed() { // a t.Fatal ended the bubble before its send
			return
		}
		got := <-result
		if i == 0 {
			if got.dropped == 0 {
				t.Fatalf("plan injected nothing: %+v", got)
			}
			first = got
			continue
		}
		if got != first {
			t.Fatalf("run %d: counters %+v, run 0: %+v", i, got, first)
		}
	}
	t.Logf("%d runs, each %+v", runs, first)
}

// TestAuditsRouteAroundSilencedBubbled runs the live driver's
// route-around body (routeAroundRun) on synctest's fake clock and
// requires every run to pass. No RPC deadline fires early there, so a
// failing run is an interleaving of the audits, not a slow host. Run it
// with GOEXPERIMENT=synctest until the module's Go version has synctest
// without the experiment.
func TestAuditsRouteAroundSilencedBubbled(t *testing.T) {
	const runs = 100
	setGOMAXPROCS(t, 4)
	// As in the chaos twin, each result comes back on a channel.
	result := make(chan error, 1)
	for i := 0; i < runs; i++ {
		synctest.Run(func() { result <- routeAroundRun(baseOptions(10, 2)...) })
		if err := <-result; err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
}
