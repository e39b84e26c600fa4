// Package par is the deterministic worker-pool primitive shared by the
// harness experiment grids and the sharded cluster simulator. It runs n
// independent jobs across a bounded pool with an atomic work-stealing
// counter; each job must write only into its own per-index slot so that the
// serial path (workers <= 1, which runs inline with no goroutines) and the
// parallel path produce byte-identical results after an index-ordered
// assembly pass. The harness grid tests (TestGridsIndependentOfGOMAXPROCS) and
// the sharded-run tests (TestClusterWorkersMatchesSerial) both pin this
// discipline.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers returns the default worker count: one per schedulable CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Run executes jobs 0..n-1 across at most `workers` goroutines. Each job must
// write results only into its own per-index slot; workers <= 1 runs inline on
// the caller's goroutine and is the serial reference path.
func Run(workers, n int, job func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			job(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				job(i)
			}
		}()
	}
	wg.Wait()
}
