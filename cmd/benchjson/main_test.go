package main

import (
	"strings"
	"testing"
)

// TestFoldRepeatedSamples: the lines of `go test -count N` fold into one
// result per benchmark, in first-seen order, holding the median of each
// value and the fastest ns/op; a benchmark seen once is kept as it is.
func TestFoldRepeatedSamples(t *testing.T) {
	out := `goos: linux
BenchmarkA-2   100   300 ns/op   16 B/op   2 allocs/op   7 ticks/s
BenchmarkB-2   50    999 ns/op
BenchmarkA-2   100   100 ns/op   16 B/op   2 allocs/op   9 ticks/s
BenchmarkA-2   200   200 ns/op   32 B/op   3 allocs/op   8 ticks/s
BenchmarkA-2   100   900 ns/op   16 B/op   2 allocs/op   6 ticks/s
PASS`
	var rs []Result
	for _, line := range strings.Split(out, "\n") {
		if r, ok := parseLine(line); ok {
			rs = append(rs, r)
		}
	}
	got := fold(rs)
	if len(got) != 2 || got[0].Name != "BenchmarkA" || got[1].Name != "BenchmarkB" {
		t.Fatalf("fold = %+v, want BenchmarkA then BenchmarkB", got)
	}
	a := got[0]
	if a.Samples != 4 || a.NsPerOp != 250 || a.MinNsPerOp != 100 || a.Iterations != 100 {
		t.Errorf("BenchmarkA = %d samples, %g ns/op (min %g), %d iterations; want 4, 250 (100), 100",
			a.Samples, a.NsPerOp, a.MinNsPerOp, a.Iterations)
	}
	if a.BytesPerOp == nil || *a.BytesPerOp != 16 || a.AllocsPerOp == nil || *a.AllocsPerOp != 2 {
		t.Errorf("BenchmarkA memory = %v B/op, %v allocs/op; want medians 16 and 2", a.BytesPerOp, a.AllocsPerOp)
	}
	if a.Metrics["ticks/s"] != 7.5 {
		t.Errorf("BenchmarkA ticks/s = %g, want the median 7.5", a.Metrics["ticks/s"])
	}
	if b := got[1]; b.Samples != 0 || b.MinNsPerOp != 0 || b.NsPerOp != 999 || b.AllocsPerOp != nil {
		t.Errorf("single-sample BenchmarkB = %+v, want it unchanged", b)
	}
}
