package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/stats"
)

// The load generator: in-process scenariod daemons driven over HTTP by a
// closed loop of `clients` goroutines (each sends its next request only
// after the previous one is answered).

const clients = 2

// The workloads.
const (
	sweepCold    = "sweep-cold"
	hitsWarm     = "hits-warm"
	resumeTiered = "resume-tiered"
)

// reqClass is what the plan expects a request to be.
type reqClass int

const (
	classHit    reqClass = iota // stored in the daemon's local tier
	classFresh                  // never seen: simulated (or coalesced)
	classRemote                 // held only by the leader: read through
)

func (c reqClass) String() string {
	return [...]string{"hit", "fresh", "remote"}[c]
}

// request is one planned submit.
type request struct {
	spec  scenario.Spec
	key   string
	class reqClass
}

// cell is a spec with its content key.
type cell struct {
	spec scenario.Spec
	key  string
}

// bench holds one workload's seeded inputs.
type bench struct {
	workload string
	seed     int64
	root     string // build/work root inside the checkout
	fixture  string // fixture cache dir ("" for sweep-cold)
	cells    []cell // the shared fixture
	remote   []cell // the leader-only cells
	work     string // this process's working copies
	copies   int
}

func newBench(workload string, seed int64, root string) (*bench, error) {
	b := &bench{workload: workload, seed: seed, root: root}
	switch workload {
	case sweepCold:
	case hitsWarm, resumeTiered:
		dir, err := ensureFixture(root, seed)
		if err != nil {
			return nil, err
		}
		b.fixture = dir
		if b.cells, err = cells(seed, fixtureCells, fixtureSpec); err != nil {
			return nil, err
		}
		if b.remote, err = cells(seed, remoteCells, remoteSpec); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want %s, %s or %s)", workload, sweepCold, hitsWarm, resumeTiered)
	}
	b.work = filepath.Join(root, "work", fmt.Sprint(os.Getpid()))
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		return nil, err
	}
	return b, nil
}

func cells(seed int64, n int, mk func(int64, int) (scenario.Spec, error)) ([]cell, error) {
	out := make([]cell, n)
	for i := range out {
		s, err := mk(seed, i)
		if err != nil {
			return nil, err
		}
		key, err := scenario.Key(s)
		if err != nil {
			return nil, err
		}
		out[i] = cell{spec: s, key: key}
	}
	return out, nil
}

// close removes this process's working copies.
func (b *bench) close() { _ = os.RemoveAll(b.work) }

// draw hashes (stream, client, j) onto [0, n).
func (b *bench) draw(stream int64, c, j, n int) int {
	h := stats.SubSeed(stats.SubSeed(stats.SubSeed(b.seed, stream), int64(c)), int64(j))
	return int(uint64(h) % uint64(n))
}

func (b *bench) hit(stream int64, c, j int) request {
	x := b.cells[b.draw(stream, c, j, len(b.cells))]
	return request{spec: x.spec, key: x.key, class: classHit}
}

func (b *bench) fresh(stream string, seed int64, idx int, kind string, h horizons) request {
	s, err := mixSpec(stream, seed, idx, kind, h)
	if err != nil {
		// The generator is fixed code; a spec it cannot build is a bug.
		panic(err)
	}
	key, err := scenario.Key(s)
	if err != nil {
		panic(err)
	}
	return request{spec: s, key: key, class: classFresh}
}

// warmup is client c's j-th warm-up request: fresh specs of a separate
// stream on sweep-cold, local hits otherwise (warm-up writes nothing to a
// disk store).
func (b *bench) warmup(c, j int) request {
	if b.workload == sweepCold {
		s := stats.SubSeed(b.seed, int64(100+c))
		return b.fresh(fmt.Sprintf("warm%d", c), s, j, mixKindAt(s, j), coldHorizons)
	}
	return b.hit(2, c, j)
}

// The resume-tiered mix: per block of tieredBlock requests, tieredFresh
// fresh specs, tieredRemote leader-only keys, the rest local hits, in a
// seeded order per client and block.
const (
	tieredBlock  = 20
	tieredFresh  = 2
	tieredRemote = 1
)

// plan is client c's j-th timed request.
func (b *bench) plan(c, j int) request {
	switch b.workload {
	case sweepCold:
		s := stats.SubSeed(b.seed, int64(c))
		return b.fresh(fmt.Sprintf("cold%d", c), s, j, mixKindAt(s, j), coldHorizons)
	case hitsWarm:
		return b.hit(1, c, j)
	}
	blk, pos := j/tieredBlock, j%tieredBlock
	r := rand.New(rand.NewSource(stats.SubSeed(stats.SubSeed(b.seed, int64(200+c)), int64(blk))))
	slots := make([]reqClass, tieredBlock)
	for i := range slots {
		switch {
		case i < tieredFresh:
			slots[i] = classFresh
		case i < tieredFresh+tieredRemote:
			slots[i] = classRemote
		}
	}
	r.Shuffle(len(slots), func(x, y int) { slots[x], slots[y] = slots[y], slots[x] })
	nth := 0 // rank of this slot among the block's slots of its class
	for i := 0; i < pos; i++ {
		if slots[i] == slots[pos] {
			nth++
		}
	}
	switch slots[pos] {
	case classFresh:
		// Both clients submit the same fresh sequence.
		k := blk*tieredFresh + nth
		fs := stats.SubSeed(b.seed, 300)
		return b.fresh("fresh", fs, k, mixKindAt(fs, k), freshHorizons)
	case classRemote:
		// Each client reads its own leader-only keys, each once.
		if k := (blk*tieredRemote+nth)*clients + c; k < len(b.remote) {
			x := b.remote[k]
			return request{spec: x.spec, key: x.key, class: classRemote}
		}
	}
	return b.hit(1, c, j)
}

// setupRequest is the first request of set-up rep r: a short fresh
// single-job spec on sweep-cold, a local hit otherwise.
func (b *bench) setupRequest(r int) request {
	if b.workload == sweepCold {
		return b.fresh("setup", b.seed, r, "single", fixtureHorizons)
	}
	return b.hit(3, 0, r)
}

// stores holds one topology's working store directories.
type stores struct{ front, leader string }

// prepare makes fresh working copies of the fixture for one topology.
func (b *bench) prepare() (stores, error) {
	if b.fixture == "" {
		return stores{}, nil
	}
	b.copies++
	base := filepath.Join(b.work, fmt.Sprint(b.copies))
	st := stores{front: filepath.Join(base, "front")}
	if err := copyStore(st.front, filepath.Join(b.fixture, "cells")); err != nil {
		return stores{}, err
	}
	if b.workload == resumeTiered {
		st.leader = filepath.Join(base, "leader")
		if err := copyStore(st.leader, filepath.Join(b.fixture, "remote")); err != nil {
			return stores{}, err
		}
	}
	return st, nil
}

// topo is a running daemon topology: the front daemon clients talk to,
// plus the leader on resume-tiered.
type topo struct {
	daemons []*service.Daemon // started daemons, leader first
	front   *service.Daemon
	leader  *service.Daemon
	client  *service.Client
	outer   []*tracedBackend // backends the storage modules see
}

// start builds and starts the workload's daemons over the given stores.
// With trace set, every backend is wrapped in a tracedBackend recording
// into rec (which may be nil to only count).
func (b *bench) start(st stores, trace bool, rec *recorder) (*topo, error) {
	t := &topo{}
	wrap := func(be service.Backend, prefix string, layer int) (service.Backend, *tracedBackend, error) {
		if !trace {
			return be, nil, nil
		}
		return traceBackend(be, rec, prefix, layer)
	}
	open := func(dir string) (service.Backend, error) {
		if dir == "" {
			return service.NewMemBackend(), nil
		}
		return service.OpenStoreBackend(dir)
	}
	run := func(cfg service.Config) (*service.Daemon, error) {
		d, err := service.New(cfg)
		if err != nil {
			return nil, err
		}
		if err := d.Start(); err != nil {
			return nil, err
		}
		t.daemons = append(t.daemons, d)
		return d, nil
	}
	fail := func(err error) (*topo, error) {
		return nil, errors.Join(err, t.stop())
	}

	var remote string
	if st.leader != "" {
		be, err := open(st.leader)
		if err != nil {
			return fail(err)
		}
		be, tb, err := wrap(be, "leader", 3)
		if err != nil {
			return fail(err)
		}
		if t.leader, err = run(service.Config{Backend: be}); err != nil {
			return fail(err)
		}
		remote = t.leader.BaseURL()
		if tb != nil {
			t.outer = append(t.outer, tb)
		}
	}
	be, err := open(st.front)
	if err != nil {
		return fail(err)
	}
	cfg := service.Config{Backend: be, Remote: remote}
	if trace {
		if remote != "" {
			// Build the tier exactly as service.New would, with the
			// local tier traced too, and trace the tier itself.
			local, _, err := wrap(be, "local", 2)
			if err != nil {
				return fail(err)
			}
			be = service.NewRemoteBackend(local, service.NewClient(remote, service.WithTimeout(0)),
				service.RemoteTimeout(0), service.RemoteSyncWrites(false))
			cfg.Remote = ""
		}
		outer, tb, err := wrap(be, "backend", 1)
		if err != nil {
			return fail(err)
		}
		cfg.Backend = outer
		t.outer = append(t.outer, tb)
	}
	if t.front, err = run(cfg); err != nil {
		return fail(err)
	}
	t.client = service.NewClient(t.front.BaseURL())
	return t, nil
}

// stop stops the daemons, front first.
func (t *topo) stop() error {
	var errs []error
	for i := len(t.daemons) - 1; i >= 0; i-- {
		errs = append(errs, t.daemons[i].Stop())
	}
	t.daemons = nil
	return errors.Join(errs...)
}

// settle waits until no daemon holds an unfinished job. A queue worker
// answers the job's waiters before it counts the simulation and retires
// the job, so counts read before settling can miss the last one.
func (t *topo) settle() {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		busy := false
		for _, d := range t.daemons {
			for _, st := range d.Queue().Inflight() {
				busy = busy || st.State != service.StateFailed
			}
		}
		if !busy {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// simulated sums the queue's simulation count over the topology.
func (t *topo) simulated() int64 {
	var n int64
	for _, d := range t.daemons {
		n += d.Queue().Stats().Simulated
	}
	return n
}

// outcome of one phase.
type phaseResult struct {
	elapsed   time.Duration
	attempted int
	failed    int
	errs      []string
	done      []timed // every answered request, in completion order per client
	freshKeys map[string]bool
	passes    map[string]float64 // fleet passes per simulated key
	samples   []sample
	simTicks  int64
	simulated int64
}

func (p *phaseResult) fail(format string, args ...any) {
	p.failed++
	if len(p.errs) < 5 {
		p.errs = append(p.errs, fmt.Sprintf(format, args...))
	}
}

// latencies returns the latencies of the answered requests of the given
// classes.
func (p *phaseResult) latencies(classes ...reqClass) []float64 {
	var xs []float64
	for _, d := range p.done {
		if slices.Contains(classes, d.class) {
			xs = append(xs, d.ms)
		}
	}
	return xs
}

// merge folds a client's result into p.
func (p *phaseResult) merge(q *phaseResult) {
	p.attempted += q.attempted
	p.failed += q.failed
	for _, e := range q.errs {
		if len(p.errs) < 5 {
			p.errs = append(p.errs, e)
		}
	}
	for k := range q.freshKeys {
		p.freshKeys[k] = true
	}
	for k, v := range q.passes {
		p.passes[k] = v
	}
	p.done = append(p.done, q.done...)
	p.samples = append(p.samples, q.samples...)
}

func newPhaseResult() *phaseResult {
	return &phaseResult{freshKeys: map[string]bool{}, passes: map[string]float64{}}
}

// sample is a request kept for the byte-for-byte check, with the outcome
// the daemon answered.
type sample struct {
	req request
	got *scenario.Outcome
}

// maxSamples caps the outcomes one phase re-runs for the byte-for-byte
// check, per client.
const maxSamples = 12

// warm drives the topology with warm-up requests for d, untimed.
func (b *bench) warm(t *topo, d time.Duration) {
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			end := time.Now().Add(d)
			for j := 0; time.Now().Before(end); j++ {
				// Warm-up answers go unchecked: the timed phase checks
				// the same paths.
				req := b.warmup(c, j)
				_, _ = t.client.Submit(context.Background(), req.spec, true)
			}
		}(c)
	}
	wg.Wait()
}

// phase drives the topology with either dur of closed-loop load or, with
// count > 0, exactly count requests per client. rec, if not nil, records
// a span per submit.
func (b *bench) phase(t *topo, dur time.Duration, count int, rec *recorder) *phaseResult {
	ctx := context.Background()
	var wg sync.WaitGroup
	t.settle()
	ticks0, sim0 := scenario.ProbeSimTicks(), t.simulated()
	res := make([]*phaseResult, clients)
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < clients; c++ {
		res[c] = newPhaseResult()
		wg.Add(1)
		go func(c int, p *phaseResult) {
			defer wg.Done()
			for j := 0; ; j++ {
				if count > 0 && j >= count || count == 0 && !time.Now().Before(deadline) {
					return
				}
				b.do(ctx, t, c, j, p, rec, start)
			}
		}(c, res[c])
	}
	wg.Wait()
	out := newPhaseResult()
	out.elapsed = time.Since(start)
	for _, p := range res {
		out.merge(p)
	}
	t.settle()
	out.simTicks = scenario.ProbeSimTicks() - ticks0
	out.simulated = t.simulated() - sim0
	return out
}

// timed is one answered request: when it completed (seconds after the
// timed phase began), how long it took, and its planned class.
type timed struct {
	at, ms float64
	class  reqClass
}

// do sends client c's j-th request and checks the answer; origin is the
// start of the timed phase.
func (b *bench) do(ctx context.Context, t *topo, c, j int, p *phaseResult, rec *recorder, origin time.Time) {
	req := b.plan(c, j)
	p.attempted++
	if req.class == classFresh {
		p.freshKeys[req.key] = true
	}
	start := time.Now()
	st, err := t.client.Submit(ctx, req.spec, true)
	ms := float64(time.Since(start).Nanoseconds()) / 1e6
	rec.add("client.submit", req.key, 0, start)
	switch {
	case err != nil:
		p.fail("%s %s: %v", req.class, req.spec.Name, err)
		return
	case st.State != service.StateDone || st.Outcome == nil:
		p.fail("%s %s: state %q (error %q)", req.class, req.spec.Name, st.State, st.Error)
		return
	case st.Key != req.key:
		p.fail("%s %s: key %s, want %s", req.class, req.spec.Name, st.Key, req.key)
		return
	case req.class == classHit && !st.Cached:
		p.fail("hit %s: answered without cached: true", req.spec.Name)
		return
	}
	p.done = append(p.done, timed{at: time.Since(origin).Seconds(), ms: ms, class: req.class})
	if req.class == classFresh {
		p.passes[req.key] = st.Outcome.Aggregate[scenario.MetricPasses] +
			st.Outcome.Aggregate[scenario.LocalMetricPrefix+scenario.MetricPasses]
	}
	if len(p.samples) < maxSamples && b.draw(4, c, j, 64) == 0 {
		p.samples = append(p.samples, sample{req: req, got: st.Outcome})
	}
}

// verify checks the phase's invariants and re-runs its sampled requests
// directly, comparing outcomes byte for byte. Each mismatch counts as a
// failed request.
func (b *bench) verify(p *phaseResult) {
	unique := int64(len(p.freshKeys))
	if p.simulated != unique {
		p.fail("simulated %d, want %d (one per unique spec)", p.simulated, unique)
	}
	if b.workload == hitsWarm && p.simTicks != 0 {
		p.fail("hits-warm simulated %d ticks, want 0", p.simTicks)
	}
	for _, smp := range p.samples {
		want, err := scenario.Run(smp.req.spec)
		if err != nil {
			p.fail("re-running %s: %v", smp.req.spec.Name, err)
			continue
		}
		wb, err1 := json.Marshal(want)
		gb, err2 := json.Marshal(smp.got)
		if err1 != nil || err2 != nil || !bytes.Equal(wb, gb) {
			p.fail("%s %s: outcome differs from a direct scenario.Run", smp.req.class, smp.req.spec.Name)
		}
	}
}
