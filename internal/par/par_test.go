package par

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// setGOMAXPROCS sets ForEach's width for the rest of the test and
// restores the old one afterwards. Tests that use it must not run in
// parallel: GOMAXPROCS is process-wide.
func setGOMAXPROCS(t testing.TB, n int) {
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// goroutineID reads the running goroutine's number from its stack
// header ("goroutine 7 [running]:").
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	buf = bytes.TrimPrefix(buf, []byte("goroutine "))
	return string(buf[:bytes.IndexByte(buf, ' ')])
}

func TestForEachCoversAllIndexes(t *testing.T) {
	for _, procs := range []int{1, 2, 8} {
		setGOMAXPROCS(t, procs)
		for _, n := range []int{0, 1, 7, 1000} {
			hits := make([]atomic.Int32, n)
			ForEach(n, func(i int) { hits[i].Add(1) })
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("GOMAXPROCS=%d n=%d: index %d hit %d times", procs, n, i, got)
				}
			}
		}
	}
}

// TestForEachWidthOneIsInline pins the serial path: at GOMAXPROCS 1
// every call runs on the caller's goroutine, in index order.
func TestForEachWidthOneIsInline(t *testing.T) {
	setGOMAXPROCS(t, 1)
	caller := goroutineID()
	var order []int
	ForEach(50, func(i int) {
		if g := goroutineID(); g != caller {
			t.Errorf("index %d ran on goroutine %s, caller is %s", i, g, caller)
		}
		order = append(order, i)
	})
	for i, got := range order {
		if got != i {
			t.Fatalf("call %d ran index %d, want index order", i, got)
		}
	}
	if len(order) != 50 {
		t.Fatalf("ran %d of 50 indexes", len(order))
	}
}

// TestForEachRunsConcurrently pins the parallel path: at width >= 2
// two indexes run at once, each waiting for the other to start. A
// serial ForEach would time out here instead of deadlocking the test.
func TestForEachRunsConcurrently(t *testing.T) {
	for _, procs := range []int{2, 8} {
		setGOMAXPROCS(t, procs)
		started := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
		var met atomic.Int32
		ForEach(2, func(i int) {
			close(started[i])
			select {
			case <-started[1-i]:
				met.Add(1)
			case <-time.After(10 * time.Second):
			}
		})
		if got := met.Load(); got != 2 {
			t.Fatalf("GOMAXPROCS=%d: %d of 2 indexes saw the other run alongside", procs, got)
		}
	}
}

// TestForEachReuseAcrossBatches runs many consecutive calls — the
// per-slot phase pattern — and checks the running total, so no call
// leaks indexes or state into the next.
func TestForEachReuseAcrossBatches(t *testing.T) {
	setGOMAXPROCS(t, 3)
	var sum atomic.Int64
	for batch := 0; batch < 200; batch++ {
		ForEach(17, func(i int) { sum.Add(int64(i)) })
	}
	if got, want := sum.Load(), int64(200*17*16/2); got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
}

// TestForEachSingleItemIsInline pins the other serial path: a one-item
// call runs on the caller's goroutine however wide GOMAXPROCS is.
func TestForEachSingleItemIsInline(t *testing.T) {
	setGOMAXPROCS(t, 8)
	caller := goroutineID()
	ran := 0
	ForEach(1, func(i int) {
		if g := goroutineID(); g != caller {
			t.Errorf("index %d ran on goroutine %s, caller is %s", i, g, caller)
		}
		ran++
	})
	if ran != 1 {
		t.Fatalf("single-item call ran %d of 1", ran)
	}
}

// TestForEachWidthIsGOMAXPROCS pins the width: a call runs on at most
// GOMAXPROCS goroutines, none of them the caller's, and never has more
// than that many indexes in flight at once.
func TestForEachWidthIsGOMAXPROCS(t *testing.T) {
	for _, procs := range []int{2, 3} {
		setGOMAXPROCS(t, procs)
		caller := goroutineID()
		var mu sync.Mutex
		seen := map[string]bool{}
		var active, peak atomic.Int32
		ForEach(64, func(int) {
			now := active.Add(1)
			for {
				p := peak.Load()
				if now <= p || peak.CompareAndSwap(p, now) {
					break
				}
			}
			g := goroutineID()
			mu.Lock()
			seen[g] = true
			mu.Unlock()
			time.Sleep(100 * time.Microsecond)
			active.Add(-1)
		})
		if seen[caller] {
			t.Errorf("GOMAXPROCS=%d: an index ran on the caller's goroutine", procs)
		}
		if len(seen) > procs {
			t.Errorf("GOMAXPROCS=%d: indexes ran on %d goroutines", procs, len(seen))
		}
		if p := int(peak.Load()); p > procs {
			t.Errorf("GOMAXPROCS=%d: %d indexes ran at once", procs, p)
		}
	}
}

// TestForEachLeavesNoGoroutines checks that every goroutine a call
// starts has exited soon after the call returns: ForEach holds nothing
// between calls.
func TestForEachLeavesNoGoroutines(t *testing.T) {
	setGOMAXPROCS(t, 8)
	before := runtime.NumGoroutine()
	for batch := 0; batch < 50; batch++ {
		ForEach(100, func(int) {})
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines before the calls, %d after", before, after)
	}
}
