package par

import (
	"sync/atomic"
	"testing"
)

// TestRunCoversEveryIndexOnce runs each index exactly once, for fewer
// workers than jobs and for more (100 workers over 17 jobs, which Run clamps
// to 17 goroutines).
func TestRunCoversEveryIndexOnce(t *testing.T) {
	for _, tc := range []struct{ workers, n int }{{0, 257}, {1, 257}, {2, 257}, {7, 257}, {64, 257}, {100, 17}} {
		hits := make([]atomic.Int32, tc.n)
		Run(tc.workers, tc.n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d n=%d: index %d ran %d times", tc.workers, tc.n, i, got)
			}
		}
	}
}

func TestRunSerialIsInline(t *testing.T) {
	// workers <= 1 must execute jobs in index order on the caller's
	// goroutine — the serial reference path of the byte-identical contract.
	var order []int
	Run(1, 5, func(i int) { order = append(order, i) })
	for i, got := range order {
		if got != i {
			t.Fatalf("serial order[%d] = %d", i, got)
		}
	}
	if len(order) != 5 {
		t.Fatalf("ran %d jobs, want 5", len(order))
	}
}

func TestRunZeroJobs(t *testing.T) {
	ran := false
	Run(4, 0, func(int) { ran = true })
	if ran {
		t.Fatal("job ran with n=0")
	}
}
