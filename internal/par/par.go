// Package par holds the one concurrency primitive the runtime drivers,
// the ledger's compaction and the slot simulator share: a fan-out over
// an indexed work list (ForEach), GOMAXPROCS wide.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEach runs fn(0..n-1) on min(n, GOMAXPROCS) goroutines that claim
// indexes through one atomic counter; when that is one goroutine, it is
// a plain loop on the caller's, in index order. It returns when every
// call has completed. fn must be safe for concurrent invocation across
// distinct indexes.
func ForEach(n int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	// One closure over one struct serves every goroutine, so a call
	// allocates the same few objects whatever the width.
	var run struct {
		next atomic.Int64
		wg   sync.WaitGroup
	}
	work := func() {
		defer run.wg.Done()
		for {
			i := int(run.next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	run.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go work()
	}
	run.wg.Wait()
}
