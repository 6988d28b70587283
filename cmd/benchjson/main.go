// Command benchjson converts `go test -bench` output into a stable,
// machine-readable JSON document, so every PR can commit its performance
// baseline (ns/op, allocs/op, and custom metrics like ticks/s) and future
// changes diff against a trajectory instead of prose in commit messages.
//
// Usage:
//
//	go test -run xxx -bench <pattern> -benchmem . | go run ./cmd/benchjson -out BENCH.json
//	go test -run xxx -bench <pattern> -benchmem . | go run ./cmd/benchjson -compare BENCH_PR3.json
//
// Lines that are not benchmark results (the goos/goarch/pkg/cpu header is
// captured into the environment block; PASS/FAIL and everything else is
// ignored) pass through silently, so the tool can sit at the end of any
// bench pipeline.
//
// Repeated result lines of one benchmark (`go test -count N`) fold into
// one result: every value is the median of the samples, and the fastest
// sample's ns/op is kept beside it. One sample of a shared machine can
// read tens of percent off; the median of several is what a baseline
// and a comparison should hold.
//
// With -compare, the freshly parsed results are diffed against a
// previously committed baseline: one line per benchmark present in both
// documents with the (median) ns/op and allocs/op deltas, then a
// non-zero exit if
// any benchmark regressed by more than -threshold (default 15%) in wall
// time or allocations. Benchmarks present on only one side are listed but
// never fail the comparison (patterns evolve across PRs).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	// Name is the benchmark name with the -GOMAXPROCS suffix stripped.
	Name string `json:"name"`
	// Iterations is the measured b.N.
	Iterations int64 `json:"iterations"`
	// NsPerOp is the headline wall time per operation.
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp are present when -benchmem was on.
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	// Metrics holds every other reported unit (e.g. "ticks/s").
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Samples counts the result lines folded into this one (go test
	// -count N); every value above is then their median, and MinNsPerOp
	// is the fastest sample. Both are absent for a single line.
	Samples    int     `json:"samples,omitempty"`
	MinNsPerOp float64 `json:"min_ns_per_op,omitempty"`
}

// Document is the file layout.
type Document struct {
	// Env captures the bench header: goos, goarch, pkg, cpu.
	Env map[string]string `json:"env,omitempty"`
	// Benchmarks are the parsed results in input order.
	Benchmarks []Result `json:"benchmarks"`
}

// parseLine parses one benchmark result line, reporting ok=false for
// non-benchmark lines.
func parseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	name := fields[0]
	// Strip the trailing -N procs suffix if present.
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	r := Result{Name: name, Iterations: iters, NsPerOp: -1}
	// The remainder is value/unit pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			b := v
			r.BytesPerOp = &b
		case "allocs/op":
			a := v
			r.AllocsPerOp = &a
		default:
			if r.Metrics == nil {
				r.Metrics = make(map[string]float64)
			}
			r.Metrics[unit] = v
		}
	}
	if r.NsPerOp < 0 {
		return Result{}, false
	}
	return r, true
}

// fold merges the results that share a name into one per benchmark, in
// first-seen order: the median of each value over the samples, plus the
// fastest ns/op.
func fold(results []Result) []Result {
	var order []string
	byName := make(map[string][]Result)
	for _, r := range results {
		if _, ok := byName[r.Name]; !ok {
			order = append(order, r.Name)
		}
		byName[r.Name] = append(byName[r.Name], r)
	}
	out := make([]Result, 0, len(order))
	for _, name := range order {
		rs := byName[name]
		if len(rs) == 1 {
			out = append(out, rs[0])
			continue
		}
		m := Result{Name: name, Samples: len(rs), MinNsPerOp: rs[0].NsPerOp}
		var iters, ns, bytes, allocs []float64
		units := make(map[string]bool)
		for _, r := range rs {
			iters = append(iters, float64(r.Iterations))
			ns = append(ns, r.NsPerOp)
			m.MinNsPerOp = min(m.MinNsPerOp, r.NsPerOp)
			if r.BytesPerOp != nil {
				bytes = append(bytes, *r.BytesPerOp)
			}
			if r.AllocsPerOp != nil {
				allocs = append(allocs, *r.AllocsPerOp)
			}
			for unit := range r.Metrics {
				units[unit] = true
			}
		}
		m.Iterations = int64(median(iters))
		m.NsPerOp = median(ns)
		m.BytesPerOp = medianOf(bytes)
		m.AllocsPerOp = medianOf(allocs)
		for unit := range units {
			var vs []float64
			for _, r := range rs {
				if v, ok := r.Metrics[unit]; ok {
					vs = append(vs, v)
				}
			}
			if m.Metrics == nil {
				m.Metrics = make(map[string]float64, len(units))
			}
			m.Metrics[unit] = median(vs)
		}
		out = append(out, m)
	}
	return out
}

// median returns the middle value of vs (the mean of the middle two for
// an even count); vs is sorted in place.
func median(vs []float64) float64 {
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// medianOf is median for an optional value: nil when no sample had it.
func medianOf(vs []float64) *float64 {
	if len(vs) == 0 {
		return nil
	}
	m := median(vs)
	return &m
}

// compare diffs the fresh results against a baseline document and
// reports whether any benchmark regressed beyond the threshold.
func compare(old, fresh Document, threshold float64) (regressed bool) {
	byName := make(map[string]Result, len(old.Benchmarks))
	for _, r := range old.Benchmarks {
		byName[r.Name] = r
	}
	seen := make(map[string]bool, len(fresh.Benchmarks))
	fmt.Printf("%-40s %14s %14s %8s %10s\n", "benchmark", "old ns/op", "new ns/op", "Δ%", "allocs")
	for _, r := range fresh.Benchmarks {
		seen[r.Name] = true
		o, ok := byName[r.Name]
		if !ok {
			fmt.Printf("%-40s %14s %14.0f %8s %10s\n", r.Name, "(new)", r.NsPerOp, "-", allocsCell(nil, r.AllocsPerOp))
			continue
		}
		delta := 0.0
		if o.NsPerOp > 0 {
			delta = (r.NsPerOp - o.NsPerOp) / o.NsPerOp * 100
		}
		mark := ""
		if o.NsPerOp > 0 && r.NsPerOp > o.NsPerOp*(1+threshold) {
			mark = "  REGRESSION(time)"
			regressed = true
		}
		if o.AllocsPerOp != nil && r.AllocsPerOp != nil &&
			*r.AllocsPerOp > *o.AllocsPerOp*(1+threshold)+1e-9 {
			mark += "  REGRESSION(allocs)"
			regressed = true
		}
		fmt.Printf("%-40s %14.0f %14.0f %+7.1f%% %10s%s\n",
			r.Name, o.NsPerOp, r.NsPerOp, delta, allocsCell(o.AllocsPerOp, r.AllocsPerOp), mark)
	}
	for _, r := range old.Benchmarks {
		if !seen[r.Name] {
			fmt.Printf("%-40s %14.0f %14s\n", r.Name, r.NsPerOp, "(gone)")
		}
	}
	return regressed
}

// allocsCell renders an old->new allocs/op pair.
func allocsCell(prev, cur *float64) string {
	switch {
	case prev == nil && cur == nil:
		return "-"
	case prev == nil:
		return fmt.Sprintf("?->%.0f", *cur)
	case cur == nil:
		return fmt.Sprintf("%.0f->?", *prev)
	default:
		return fmt.Sprintf("%.0f->%.0f", *prev, *cur)
	}
}

func main() {
	out := flag.String("out", "", "output path (default stdout)")
	comparePath := flag.String("compare", "", "baseline JSON to diff against; exits non-zero on regression")
	threshold := flag.Float64("threshold", 0.15, "regression threshold for -compare (fraction of the baseline)")
	flag.Parse()

	doc := Document{Env: make(map[string]string)}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if r, ok := parseLine(line); ok {
			doc.Benchmarks = append(doc.Benchmarks, r)
			continue
		}
		for _, key := range []string{"goos", "goarch", "pkg", "cpu"} {
			if rest, ok := strings.CutPrefix(line, key+":"); ok {
				doc.Env[key] = strings.TrimSpace(rest)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(doc.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark results on stdin")
		os.Exit(1)
	}
	doc.Benchmarks = fold(doc.Benchmarks)
	if *comparePath != "" {
		b, err := os.ReadFile(*comparePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		var old Document
		if err := json.Unmarshal(b, &old); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: decoding %s: %v\n", *comparePath, err)
			os.Exit(1)
		}
		if compare(old, doc, *threshold) {
			fmt.Fprintf(os.Stderr, "benchjson: regression beyond %.0f%% against %s\n",
				*threshold*100, *comparePath)
			os.Exit(1)
		}
		if *out == "" {
			return
		}
	}
	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
