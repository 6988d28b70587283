// Command perfbench is the repository benchmark: closed-loop load against
// in-process scenariod daemons (service.New + service.Client), with the
// outputs checked for correctness and, in a separate traced run, the time
// of each layer below the API.
//
//	perfbench --workload sweep-cold|hits-warm|resume-tiered --seed N \
//	          --seconds S --trace 0|1
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics (the end-to-end metrics with --trace 0,
// the per-layer metrics with --trace 1). The lines before it are the
// human-readable report. The exit code is non-zero when any correctness
// check fails. Run it through run.sh, which builds it from source.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"syscall"
	"time"

	"repro/internal/service"
)

// buildRoot holds everything the benchmark writes: the binary and Go
// caches (see run.sh), per-seed fixtures, working stores and spans. It is
// relative to the checkout root, where run.sh runs the benchmark.
const buildRoot = ".bench_build"

func main() {
	if len(os.Args) > 1 && os.Args[1] == "fixture" {
		fs := flag.NewFlagSet("fixture", flag.ExitOnError)
		seed := fs.Int64("seed", 1, "fixture seed")
		dir := fs.String("dir", "", "output directory")
		_ = fs.Parse(os.Args[2:])
		if err := generateFixture(*dir, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench fixture:", err)
			os.Exit(1)
		}
		return
	}
	workload := flag.String("workload", "", "sweep-cold, hits-warm or resume-tiered")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "length of each timed phase")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	b, err := newBench(*workload, *seed, buildRoot)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	defer b.close()
	var r *report
	if *trace == 1 {
		r, err = b.traced(time.Duration(*seconds) * time.Second)
	} else {
		r, err = b.measured(time.Duration(*seconds) * time.Second)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		b.close()
		os.Exit(1)
	}
	r.print(os.Stdout)
	if !r.correct {
		b.close()
		os.Exit(1)
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects reported values by name.
type metrics map[string]metric

// set records a metric; its unit comes from metricUnits.
func (m metrics) set(name string, v float64) {
	unit, ok := metricUnits[name]
	if !ok {
		panic("perfbench: metric " + name + " has no unit") // a bug in this program
	}
	m[name] = metric{Value: v, Unit: unit}
}

// missing lists the names that should have been set but were not.
func (m metrics) missing(names []string) []string {
	var out []string
	for _, n := range names {
		if _, ok := m[n]; !ok {
			out = append(out, n)
		}
	}
	return out
}

// endToEndMetrics are reported by the untraced run (--trace 0).
var endToEndMetrics = []string{"setup_s", "req_per_s", "p50_ms", "p99_ms", "rss_peak_mb"}

// metricUnits gives every metric its unit; every name that is not an
// end-to-end metric is a per-layer metric of the traced run.
var metricUnits = map[string]string{
	"setup_s": "s", "req_per_s": "1/s", "p50_ms": "ms", "p99_ms": "ms", "rss_peak_mb": "MB",

	"scenario.run_ms.single": "ms", "scenario.run_ms.batch": "ms", "scenario.run_ms.batch_voting": "ms",
	"scenario.run_ms.fleet": "ms", "scenario.run_ms.fleetcoord": "ms", "scenario.run_ms.multicore": "ms",
	"scenario.run_ms.faultsweep": "ms", "scenario.run_ms.mix": "ms",
	"scenario.ns_per_tick": "ns", "thermal.network_step_ns": "ns", "thermal.batch_step_ns_per_lane": "ns",
	"sim.server_tick_ns": "ns", "multicore.tick_ns": "ns",

	"scenario.sim_ticks": "count", "scenario.fleet_passes": "count", "service.simulated": "count",
	"service.cells_listed_per_put": "count", "scenario.cell_bytes_mean": "bytes",

	"scenario.validate_us": "us", "scenario.key_us": "us", "scenario.store_get_us": "us",
	"scenario.store_get_allocs": "count", "service.queue_submit_us": "us", "service.client_hit_us": "us",
	"service.http_overhead_us": "us", "service.hit_allocs": "count",

	"scenario.store_put_us": "us", "scenario.store_list_ms": "ms", "service.backend_put_us": "us",
	"service.storage_wait_us": "us",

	"service.remote_get_us": "us", "service.remote_fetch_ms": "ms", "service.coalesced": "count",
	"service.cache_hits": "count", "service.remote_errors": "count", "service.breaker_opens": "count",
	"service.write_throughs": "count", "service.write_dropped": "count",

	"ladder.server_tick_over_network_step": "ratio", "ladder.scenario_tick_over_server_tick": "ratio",
	"ladder.queue_submit_over_store_get": "ratio", "ladder.client_hit_over_queue_submit": "ratio",

	"trace.req_per_s_untraced": "1/s", "trace.req_per_s_traced": "1/s", "trace.overhead_pct": "%",
	"trace.self.client_us": "us", "trace.self.backend_us": "us", "trace.self.local_us": "us",
	"trace.self.leader_us": "us",
}

// perLayerMetrics are the names the traced run (--trace 1) reports.
func perLayerMetrics() []string {
	var names []string
	for name := range metricUnits {
		if !slices.Contains(endToEndMetrics, name) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// report is one run's output.
type report struct {
	correct   bool
	attempted int
	failed    int
	lines     []string
	metrics   metrics
}

func (r *report) linef(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *report) print(f *os.File) {
	for _, l := range r.lines {
		fmt.Fprintln(f, l)
	}
	out := struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{r.correct, max(r.attempted, 1), r.failed, r.metrics}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // requireAll replaced every non-finite value
	}
	fmt.Fprintln(f, string(b))
}

// phase folds a phase's request counts and failures into the report.
func (r *report) phase(name string, p *phaseResult) {
	r.attempted += p.attempted
	r.failed += p.failed
	for _, e := range p.errs {
		r.linef("FAIL %s: %s", name, e)
	}
}

// setupReps is how many times a run sets the daemons up; the median is
// reported as setup_s. A set-up takes about a millisecond, and the
// machine's state drifts more across a run than within a batch of them,
// so the reps are taken in setupBatches batches spread over the run.
const (
	setupReps    = 60
	setupBatches = 3
)

// measured is the untraced run: set-up time, then one timed phase, with
// every end-to-end metric.
func (b *bench) measured(dur time.Duration) (*report, error) {
	r := &report{correct: true, metrics: metrics{}}
	setupStores, err := b.prepare()
	if err != nil {
		return nil, err
	}
	var setups []float64
	setupBatch := func() error {
		xs, err := b.measureSetup(setupStores, len(setups), setupReps/setupBatches)
		setups = append(setups, xs...)
		return err
	}
	st, err := b.prepare()
	if err != nil {
		return nil, err
	}
	t, err := b.start(st, false, nil)
	if err != nil {
		return nil, err
	}
	// The first set-up batch follows the warm-up, which also gives the
	// fixture copies time to be written back.
	b.warm(t, warmupFor(dur))
	if err := setupBatch(); err != nil {
		return nil, errors.Join(err, t.stop())
	}
	p := b.phase(t, dur, 0, nil)
	counters, err := b.counters(t)
	if err := errors.Join(err, t.stop(), setupBatch()); err != nil {
		return nil, err
	}
	b.verify(p)
	r.phase("timed", p)
	if err := setupBatch(); err != nil {
		return nil, err
	}

	r.linef("perfbench %s seed %d: %d closed-loop clients, %v timed", b.workload, b.seed, clients, dur)
	r.metrics.set("setup_s", median(setups))
	ws := windows(p.done, dur.Seconds(), timedWindows)
	rate := func(ms []float64, secs float64) float64 { return float64(len(ms)) / secs }
	p50 := func(ms []float64, _ float64) float64 { return percentile(sortedCopy(ms), 50) }
	r.metrics.set("req_per_s", windowMedian(ws, rate))
	r.metrics.set("p50_ms", windowMedian(ws, p50))
	var timedMS []float64
	for _, d := range p.done {
		if d.at < dur.Seconds() {
			timedMS = append(timedMS, d.ms)
		}
	}
	// p99 needs every sample of the phase to have ten beyond it.
	r.metrics.set("p99_ms", percentile(sortedCopy(timedMS), 99))
	r.metrics.set("rss_peak_mb", rssPeakMB())
	r.endToEnd(p, counters)
	r.spread("setup_s over set-ups", setups)
	r.spread("req_per_s over windows", windowValues(ws, rate))
	r.spread("p50_ms over windows", windowValues(ws, p50))
	if len(timedMS) < 1000 {
		r.linef("  note: p99_ms has fewer than ten samples beyond it (%d requests)", len(timedMS))
	}
	r.requireAll(endToEndMetrics)
	return r, nil
}

// spread prints the quartiles of a metric's within-run samples.
func (r *report) spread(what string, xs []float64) {
	if q1, q3, ok := quartiles(xs); ok {
		m := median(xs)
		r.linef("  spread of %-22s q1 %.6g, median %.6g, q3 %.6g (iqr/median %.3f, n=%d)", what, q1, m, q3, (q3-q1)/m, len(xs))
	}
}

// timedWindows is how many equal windows the timed phase is cut into:
// throughput and latency percentiles are computed per window and the
// median over windows is reported, so a burst of interference from
// outside the benchmark moves one window, not the result.
const timedWindows = 10

// window is the latencies of the requests that completed in one slice of
// the timed phase, and the slice's length.
type window struct {
	ms   []float64
	secs float64
}

// windows cuts the answered requests into k equal windows of [0, span)
// by completion time; requests answered after span (the drain after the
// deadline) fall in no window.
func windows(done []timed, span float64, k int) []window {
	ws := make([]window, k)
	for i := range ws {
		ws[i].secs = span / float64(k)
	}
	for _, d := range done {
		if i := int(d.at / span * float64(k)); i >= 0 && i < k {
			ws[i].ms = append(ws[i].ms, d.ms)
		}
	}
	return ws
}

// windowValues is f of every non-empty window.
func windowValues(ws []window, f func(ms []float64, secs float64) float64) []float64 {
	var xs []float64
	for _, w := range ws {
		if len(w.ms) > 0 {
			xs = append(xs, f(w.ms, w.secs))
		}
	}
	return xs
}

// windowMedian is the median over the non-empty windows of f.
func windowMedian(ws []window, f func(ms []float64, secs float64) float64) float64 {
	return median(windowValues(ws, f))
}

// warmupFor is the untimed warm-up before a timed phase.
func warmupFor(dur time.Duration) time.Duration {
	return min(max(dur/10, 500*time.Millisecond), 2*time.Second)
}

// endToEnd prints the end-to-end report: every metric by name and unit,
// the hit and miss latencies, the failure fraction and the daemon
// counters.
func (r *report) endToEnd(p *phaseResult, counters map[string]float64) {
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r.linef("  %-26s %14.6g %s", name, r.metrics[name].Value, r.metrics[name].Unit)
	}
	hits := p.latencies(classHit)
	misses := p.latencies(classFresh, classRemote)
	// Hits are planned local hits; misses are the requests planned to
	// simulate, coalesce or read through to the leader.
	for _, c := range []struct {
		name string
		tail float64
		xs   []float64
	}{{"hit", 99, hits}, {"miss", 90, misses}} {
		if len(c.xs) == 0 {
			r.linef("  %-26s %14s (no samples)", c.name+"_*_ms", "-")
			continue
		}
		s := sortedCopy(c.xs)
		r.linef("  %-26s %14.6g ms (n=%d)", c.name+"_p50_ms", percentile(s, 50), len(s))
		r.linef("  %-26s %14.6g ms", fmt.Sprintf("%s_p%g_ms", c.name, c.tail), percentile(s, c.tail))
		if tail := tailPercentile(len(s)); tail != c.tail {
			r.linef("  %-26s %14.6g ms (highest percentile with >= 10 samples beyond it)",
				fmt.Sprintf("%s_p%g_ms", c.name, tail), percentile(s, tail))
		}
	}
	r.linef("  %-26s %14.6g (%d of %d requests)", "fail_frac", float64(p.failed)/float64(max(p.attempted, 1)), p.failed, p.attempted)
	keys := make([]string, 0, len(counters))
	for k := range counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		r.linef("  %-26s %14.0f count", k, counters[k])
	}
}

// counters reads the daemons' /v1/stats accounting, summed over the
// topology (tier counters come from the follower).
func (b *bench) counters(t *topo) (map[string]float64, error) {
	c := map[string]float64{
		"service.simulated": 0, "service.coalesced": 0, "service.cache_hits": 0,
		"service.remote_errors": 0, "service.breaker_opens": 0,
		"service.write_throughs": 0, "service.write_dropped": 0,
	}
	for _, d := range t.daemons {
		sr, err := service.NewClient(d.BaseURL()).Stats(context.Background())
		if err != nil {
			return nil, fmt.Errorf("reading daemon stats: %w", err)
		}
		c["service.simulated"] += float64(sr.Queue.Simulated)
		c["service.coalesced"] += float64(sr.Queue.Coalesced)
		c["service.cache_hits"] += float64(sr.Queue.CacheHits)
		if ts := sr.Storage.Tier; ts != nil {
			c["service.remote_errors"] += float64(ts.RemoteErrors)
			c["service.breaker_opens"] += float64(ts.BreakerOpens)
			c["service.write_throughs"] += float64(ts.WriteThroughs)
			c["service.write_dropped"] += float64(ts.WriteDropped)
		}
	}
	return c, nil
}

// measureSetup times, reps times, how long the workload's daemons take
// from service.New until their first request is answered; from offsets
// which requests the reps send. The daemons serve
// st, a fixture copy made before the clock starts, and only read it. One
// more set-up before the timed ones is discarded: the first after other
// work runs 2-3x slower, on cold caches.
func (b *bench) measureSetup(st stores, from, reps int) ([]float64, error) {
	xs := make([]float64, reps+1)
	for i := range xs {
		start := time.Now()
		t, err := b.start(st, false, nil)
		if err != nil {
			return nil, err
		}
		req := b.setupRequest(from + i)
		s, err := t.client.Submit(context.Background(), req.spec, true)
		xs[i] = time.Since(start).Seconds()
		if err := errors.Join(err, t.stop()); err != nil {
			return nil, fmt.Errorf("set-up request: %w", err)
		}
		if s.State != service.StateDone || s.Key != req.key {
			return nil, fmt.Errorf("set-up request answered %q for key %s", s.State, s.Key)
		}
	}
	return xs[1:], nil
}

// rssPeakMB is the process's peak resident set size.
func rssPeakMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// spansPath is where a traced run writes its spans.
func (b *bench) spansPath() string {
	return filepath.Join(buildRoot, "spans", fmt.Sprintf("%s-%d.csv", b.workload, b.seed))
}

// requireAll settles the verdict: a run is correct when nothing failed
// and every metric it owes was measured as a finite number.
func (r *report) requireAll(names []string) {
	if miss := r.metrics.missing(names); len(miss) > 0 {
		r.linef("FAIL metrics not measured: %v", miss)
		r.failed++
	}
	for name, m := range r.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.linef("FAIL metric %s is %v", name, m.Value)
			r.failed++
			m.Value = 0
			r.metrics[name] = m
		}
	}
	r.correct = r.failed == 0
}
