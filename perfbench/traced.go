package main

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// The traced run: an untraced phase (the overhead baseline), a traced
// phase (spans at every layer boundary the benchmark can see), the
// deterministic count phase twice, and the direct layer probes, all
// reported as per-layer metrics with the ladder between them.

// countRequests is the fixed request count per client of the count
// phase.
var countRequests = map[string]int{sweepCold: 2 * len(mixKinds), hitsWarm: 100, resumeTiered: 2 * tieredBlock}

func (b *bench) traced(dur time.Duration) (*report, error) {
	r := &report{correct: true, metrics: metrics{}}
	r.linef("perfbench %s seed %d (traced): %d closed-loop clients, %v per phase", b.workload, b.seed, clients, dur)

	// Untraced baseline.
	st, err := b.prepare()
	if err != nil {
		return nil, err
	}
	t, err := b.start(st, false, nil)
	if err != nil {
		return nil, err
	}
	b.warm(t, warmupFor(dur))
	pu := b.phase(t, dur, 0, nil)
	if err := t.stop(); err != nil {
		return nil, err
	}
	b.verify(pu)
	r.phase("untraced", pu)

	// Traced phase.
	rec := newRecorder()
	if st, err = b.prepare(); err != nil {
		return nil, err
	}
	if t, err = b.start(st, true, rec); err != nil {
		return nil, err
	}
	stopProbe := b.probeStorage(t, rec)
	b.warm(t, warmupFor(dur))
	pt := b.phase(t, dur, 0, rec)
	stopProbe()
	// Snapshot before reading the counters: a stats call on a daemon
	// that never put lists its whole store, which is no request's work.
	spans := rec.snapshot()
	counters, err := b.counters(t)
	var puts, putNanos int64
	for _, tb := range t.outer {
		puts += tb.puts.Load()
		putNanos += tb.putNanos.Load()
	}
	if err := errors.Join(err, t.stop()); err != nil {
		return nil, err
	}
	b.verify(pt)
	r.phase("traced", pt)
	if err := os.MkdirAll(filepath.Dir(b.spansPath()), 0o755); err != nil {
		return nil, err
	}
	if err := writeSpans(b.spansPath(), spans); err != nil {
		return nil, err
	}

	m := r.metrics
	untracedRate := float64(len(pu.done)) / pu.elapsed.Seconds()
	tracedRate := float64(len(pt.done)) / pt.elapsed.Seconds()
	m.set("trace.req_per_s_untraced", untracedRate)
	m.set("trace.req_per_s_traced", tracedRate)
	m.set("trace.overhead_pct", 100*(untracedRate-tracedRate)/untracedRate)
	ss := spanStats(spans)
	m.set("service.storage_wait_us", ss["storage.get"].self)
	m.set("service.backend_put_us", ratio(float64(putNanos)/1e3, float64(puts)))
	m.set("trace.self.client_us", ss["client.submit"].self)
	for _, layer := range []string{"backend", "local", "leader"} {
		m.set("trace.self."+layer+"_us", selfByPrefix(ss, layer+"."))
	}
	for _, k := range []string{"service.coalesced", "service.cache_hits", "service.remote_errors",
		"service.breaker_opens", "service.write_throughs", "service.write_dropped"} {
		m.set(k, counters[k])
	}

	// Deterministic counts, twice.
	c1, err := b.countPhase(r)
	if err != nil {
		return nil, err
	}
	c2, err := b.countPhase(r)
	if err != nil {
		return nil, err
	}
	if c1 != c2 {
		r.linef("FAIL counts differ between two runs of the same seed: %+v vs %+v", c1, c2)
		r.failed++
	}
	m.set("scenario.sim_ticks", float64(c1.simTicks))
	m.set("scenario.fleet_passes", c1.fleetPasses)
	m.set("service.simulated", float64(c1.simulated))
	m.set("service.cells_listed_per_put", c1.listedPerPut)
	m.set("scenario.cell_bytes_mean", c1.cellBytesMean)

	// Direct layer probes.
	if err := engineProbes(b.seed, m); err != nil {
		return nil, err
	}
	if st, err = b.prepare(); err != nil {
		return nil, err
	}
	if err := b.storeProbes(st.front, m); err != nil {
		return nil, err
	}
	ladder(r, m)

	r.linef("metrics:")
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r.linef("  %-38s %14.6g %s", name, m[name].Value, m[name].Unit)
	}
	r.linef("spans (mean duration / mean self time, us):")
	spanNames := make([]string, 0, len(ss))
	for name := range ss {
		spanNames = append(spanNames, name)
	}
	sort.Strings(spanNames)
	for _, name := range spanNames {
		s := ss[name]
		r.linef("  %-16s n=%-8d %12.2f %12.2f", name, s.count, s.meanUS, s.self)
	}
	r.linef("spans written to %s", b.spansPath())
	if misses := pu.latencies(classFresh); b.workload == sweepCold && len(misses) > 0 {
		// Two views of how much of a miss is engine time. The probe view
		// divides idle, single-threaded run time by the loaded latency,
		// so it undercounts when two simulations share the two cores. The
		// span view takes a miss's client span, removes the backend calls
		// inside it and the cost of an HTTP hit of the same cells; what is
		// left is the queue worker running the engine.
		engine := m["scenario.run_ms.mix"].Value
		p50 := percentile(sortedCopy(misses), 50)
		r.linef("engine share of a miss (probe): scenario.run_ms.mix %.4g ms / miss_p50_ms %.4g ms = %.0f%%",
			engine, p50, 100*engine/p50)
		cs := ss["client.submit"]
		r.linef("engine share of a miss (spans): (client self %.4g us - HTTP hit %.4g us) / client %.4g us = %.0f%%",
			cs.self, m["service.client_hit_us"].Value, cs.meanUS,
			100*(cs.self-m["service.client_hit_us"].Value)/cs.meanUS)
	}
	r.requireAll(perLayerMetrics())
	return r, nil
}

// ratio is a/b, or 0 when b is 0 (no samples).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// selfByPrefix is the mean self time of the spans whose names start with
// prefix.
func selfByPrefix(ss map[string]spanStat, prefix string) float64 {
	var n, sum float64
	for name, s := range ss {
		if strings.HasPrefix(name, prefix) {
			n += float64(s.count)
			sum += s.self * float64(s.count)
		}
	}
	return ratio(sum, n)
}

// probeStorage calls the front daemon's Storage.Get directly every 2 ms
// until stopped, recording a span per call: its self time, the call
// minus the backend Get inside it, is the time the read waited for the
// storage module.
func (b *bench) probeStorage(t *topo, rec *recorder) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for j := 0; ; j++ {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			key := strings.Repeat("0", 64) // a miss: sweep-cold has no fixture
			if b.fixture != "" {
				key = b.hit(5, 0, j).key
			}
			start := time.Now()
			_, _, _ = t.front.Storage().Get(context.Background(), key)
			rec.add("storage.get", key, 0, start)
		}
	}()
	return func() { close(done); wg.Wait() }
}

// counts are the work counts a seed fixes; two runs of one seed must
// agree on all of them exactly.
type counts struct {
	simTicks      int64
	fleetPasses   float64
	simulated     int64
	listedPerPut  float64
	cellBytesMean float64
}

// countPhase runs exactly countRequests requests per client on fresh
// daemons (backends wrapped to count listings) and returns the counts.
func (b *bench) countPhase(r *report) (counts, error) {
	st, err := b.prepare()
	if err != nil {
		return counts{}, err
	}
	t, err := b.start(st, true, nil)
	if err != nil {
		return counts{}, err
	}
	p := b.phase(t, 0, countRequests[b.workload], nil)
	infos, err := t.front.Storage().List(context.Background())
	var listed, putLists int64
	for _, tb := range t.outer {
		listed += tb.listed.Load()
		putLists += tb.putLists.Load()
	}
	if err := errors.Join(err, t.stop()); err != nil {
		return counts{}, err
	}
	b.verify(p)
	r.phase("count", p)
	c := counts{simTicks: p.simTicks, simulated: p.simulated, listedPerPut: ratio(float64(listed), float64(putLists))}
	for _, v := range p.passes {
		c.fleetPasses += v
	}
	var size int64
	for _, info := range infos {
		size += info.Size
	}
	c.cellBytesMean = ratio(float64(size), float64(len(infos)))
	return c, nil
}

// ladder prints each rung of the engine and read chains with its
// normalized unit and its overhead over the rung below.
func ladder(r *report, m metrics) {
	chains := []struct {
		title string
		rungs []string
		names []string
	}{
		{"engine", []string{"thermal.network_step_ns", "sim.server_tick_ns", "scenario.ns_per_tick"},
			[]string{"ladder.server_tick_over_network_step", "ladder.scenario_tick_over_server_tick"}},
		{"read", []string{"scenario.store_get_us", "service.queue_submit_us", "service.client_hit_us"},
			[]string{"ladder.queue_submit_over_store_get", "ladder.client_hit_over_queue_submit"}},
	}
	for _, c := range chains {
		r.linef("ladder (%s):", c.title)
		for i, name := range c.rungs {
			v := m[name]
			if i == 0 {
				r.linef("  %-26s %12.4g %s", name, v.Value, v.Unit)
				continue
			}
			below := m[c.rungs[i-1]].Value
			x := ratio(v.Value, below)
			m.set(c.names[i-1], x)
			r.linef("  %-26s %12.4g %s  (+%.4g %s, %.2fx over %s)", name, v.Value, v.Unit, v.Value-below, v.Unit, x, c.rungs[i-1])
		}
	}
}
