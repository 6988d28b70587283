package sim

import (
	"sync/atomic"
	"testing"
)

func TestParallelForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 3, 8, 0} {
		const n = 100
		var counts [n]int32
		if err := ParallelFor(n, workers, func(i int) {
			atomic.AddInt32(&counts[i], 1)
		}); err != nil {
			t.Fatal(err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestParallelForNegativeCount(t *testing.T) {
	if err := ParallelFor(-1, 2, func(int) {}); err == nil {
		t.Fatal("negative count accepted")
	}
}

func TestParallelForPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("worker panic not propagated")
		}
	}()
	_ = ParallelFor(8, 4, func(i int) {
		if i == 5 {
			panic("boom")
		}
	})
}
