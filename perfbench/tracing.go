package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/scenario"
	"repro/internal/service"
)

// Tracing from outside the program. The benchmark records a span around
// each call it makes into a layer (a client submit, a direct Storage.Get)
// and around each call the daemon makes into its storage backend, through
// a wrapper passed as service.Config.Backend. Spans stay in memory and
// are written out when the run ends. Server-side spans carry the content
// key of the request that caused them; link attaches each one to the
// tightest enclosing span of an outer layer with the same key.

// span is one timed call at a layer boundary.
type span struct {
	name   string
	key    string
	layer  int   // 0 = benchmark client side; larger = deeper in the daemon
	start  int64 // ns since the recorder's origin
	end    int64
	parent int // index into the span list; -1 = root
}

func (s span) dur() int64 { return s.end - s.start }

// recorder collects spans. A nil recorder records nothing, which is how
// the untraced runs pay no tracing cost.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// add records one span that ran from start until now.
func (r *recorder) add(name, key string, layer int, start time.Time) {
	if r == nil {
		return
	}
	end := time.Since(r.origin).Nanoseconds()
	s := span{name: name, key: key, layer: layer, start: start.Sub(r.origin).Nanoseconds(), end: end, parent: -1}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// snapshot returns the recorded spans, linked.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	link(spans)
	return spans
}

// link sets each span's parent: the shortest span of a smaller layer
// number with the same key whose interval contains it.
func link(spans []span) {
	byKey := make(map[string][]int)
	for i := range spans {
		spans[i].parent = -1
		if spans[i].key != "" {
			byKey[spans[i].key] = append(byKey[spans[i].key], i)
		}
	}
	for _, idx := range byKey {
		for _, i := range idx {
			best := -1
			for _, j := range idx {
				p, c := spans[j], spans[i]
				if p.layer >= c.layer || p.start > c.start || p.end < c.end {
					continue
				}
				if best < 0 || p.dur() < spans[best].dur() {
					best = j
				}
			}
			spans[i].parent = best
		}
	}
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its children (overlapping children count
// once).
func selfTimes(spans []span) []int64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s.start, s.end, children[i])
	}
	return self
}

// covered measures the union of intervals clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		s, e := max(iv[0], cur), min(iv[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// spanStats aggregates spans by name: count, mean duration and mean self
// time in microseconds.
type spanStat struct {
	count        int
	meanUS, self float64
}

func spanStats(spans []span) map[string]spanStat {
	self := selfTimes(spans)
	acc := make(map[string]*[3]float64)
	for i, s := range spans {
		a := acc[s.name]
		if a == nil {
			a = new([3]float64)
			acc[s.name] = a
		}
		a[0]++
		a[1] += float64(s.dur())
		a[2] += float64(self[i])
	}
	out := make(map[string]spanStat, len(acc))
	for name, a := range acc {
		out[name] = spanStat{count: int(a[0]), meanUS: a[1] / a[0] / 1e3, self: a[2] / a[0] / 1e3}
	}
	return out
}

// writeSpans writes the spans as CSV (name,key,layer,start_ns,end_ns,parent).
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name,key,layer,start_ns,end_ns,parent")
	for _, s := range spans {
		fmt.Fprintf(w, "%s,%s,%d,%d,%d,%d\n", s.name, s.key, s.layer, s.start, s.end, s.parent)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedBackend wraps a storage backend, recording a span per call and
// counting the cells the daemon lists after its puts. It forwards the
// optional Fetcher and GCBackend hooks with the storage module's own
// fallbacks, so a traced daemon behaves like an untraced one.
type tracedBackend struct {
	inner  service.Backend
	rec    *recorder
	prefix string
	layer  int

	mu      sync.Mutex
	lastPut string // key of the put the next List follows, if any

	puts     atomic.Int64 // Put calls
	putLists atomic.Int64 // List calls that directly follow a Put
	listed   atomic.Int64 // cells returned by those List calls
	putNanos atomic.Int64 // total Put time
}

// tracedTier is a tracedBackend over a tiered backend: it also forwards
// the tier statistics and Close, which the storage module and the daemon
// look for.
type tracedTier struct{ *tracedBackend }

// traceBackend wraps inner. The result implements service.TierStatter and
// io.Closer exactly when inner does.
func traceBackend(inner service.Backend, rec *recorder, prefix string, layer int) (service.Backend, *tracedBackend, error) {
	tb := &tracedBackend{inner: inner, rec: rec, prefix: prefix, layer: layer}
	_, tiered := inner.(service.TierStatter)
	_, closer := inner.(io.Closer)
	switch {
	case tiered && closer:
		return tracedTier{tb}, tb, nil
	case !tiered && !closer:
		return tb, tb, nil
	}
	return nil, nil, fmt.Errorf("trace: backend %s implements only one of TierStatter and io.Closer", inner.Name())
}

func (t *tracedBackend) Name() string { return t.inner.Name() }

func (t *tracedBackend) Get(ctx context.Context, key string) (*scenario.Outcome, bool, error) {
	start := time.Now()
	out, ok, err := t.inner.Get(ctx, key)
	t.rec.add(t.prefix+".get", key, t.layer, start)
	return out, ok, err
}

// Fetch forwards to the inner Fetcher, or to Get as the storage module
// does for backends without one.
func (t *tracedBackend) Fetch(ctx context.Context, spec scenario.Spec, key string) (*scenario.Outcome, bool, error) {
	f, ok := t.inner.(service.Fetcher)
	if !ok {
		return t.Get(ctx, key)
	}
	start := time.Now()
	out, hit, err := f.Fetch(ctx, spec, key)
	t.rec.add(t.prefix+".fetch", key, t.layer, start)
	return out, hit, err
}

func (t *tracedBackend) Put(ctx context.Context, spec scenario.Spec, out *scenario.Outcome) error {
	key, err := scenario.Key(spec)
	if err != nil {
		return err // the wrapped Put would fail on the same key
	}
	start := time.Now()
	err = t.inner.Put(ctx, spec, out)
	t.rec.add(t.prefix+".put", key, t.layer, start)
	t.puts.Add(1)
	t.putNanos.Add(time.Since(start).Nanoseconds())
	t.mu.Lock()
	t.lastPut = key
	t.mu.Unlock()
	return err
}

// List records the listing under the key of the put it directly
// follows (the storage module's footprint refresh), so it links to the
// request that caused it.
func (t *tracedBackend) List(ctx context.Context) ([]scenario.CellInfo, error) {
	t.mu.Lock()
	key := t.lastPut
	t.lastPut = ""
	t.mu.Unlock()
	start := time.Now()
	infos, err := t.inner.List(ctx)
	t.rec.add(t.prefix+".list", key, t.layer, start)
	if key != "" {
		t.putLists.Add(1)
		t.listed.Add(int64(len(infos)))
	}
	return infos, err
}

func (t *tracedBackend) Len(ctx context.Context) (int, error) { return t.inner.Len(ctx) }

func (t *tracedBackend) GC(ctx context.Context, cfg scenario.GCConfig) (scenario.GCResult, error) {
	gc, ok := t.inner.(service.GCBackend)
	if !ok {
		return scenario.GCResult{}, fmt.Errorf("trace: backend %s does not support eviction", t.inner.Name())
	}
	return gc.GC(ctx, cfg)
}

func (t tracedTier) TierStats() service.TierStats {
	return t.inner.(service.TierStatter).TierStats()
}

func (t tracedTier) Close() error { return t.inner.(io.Closer).Close() }
