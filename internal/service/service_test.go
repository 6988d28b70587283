package service

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/units"
)

// ctx is the background context every direct backend/module call in
// these tests runs under.
var ctx = context.Background()

// testSpec is the cheap single-job fixture; ambient varies the content
// key.
func testSpec(ambient float64) scenario.Spec {
	cfg := sim.Default()
	cfg.Ambient = units.Celsius(ambient)
	return scenario.Spec{
		Kind:     scenario.KindSingle,
		Name:     "service-test",
		Base:     &cfg,
		Duration: 120,
		Jobs: []scenario.JobSpec{{
			Workload: scenario.FactoryRef{Name: "constant", Params: scenario.Params{"u": 0.6}},
			Policy:   scenario.FactoryRef{Name: "hold", Params: scenario.Params{"fan": 3000}},
		}},
	}
}

// startDaemon builds and starts a daemon, failing the test on error and
// stopping it on cleanup.
func startDaemon(t *testing.T, cfg Config) *Daemon {
	t.Helper()
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := d.Stop(); err != nil {
			t.Errorf("stopping daemon: %v", err)
		}
	})
	return d
}

// fakeModule records lifecycle calls into a shared log.
type fakeModule struct {
	name                string
	log                 *[]string
	failConf, failStart bool
}

func (m *fakeModule) Name() string { return m.name }
func (m *fakeModule) Configure() error {
	*m.log = append(*m.log, "conf:"+m.name)
	if m.failConf {
		return fmt.Errorf("boom")
	}
	return nil
}
func (m *fakeModule) Start() error {
	*m.log = append(*m.log, "start:"+m.name)
	if m.failStart {
		return fmt.Errorf("boom")
	}
	return nil
}
func (m *fakeModule) Stop() error {
	*m.log = append(*m.log, "stop:"+m.name)
	return nil
}

// TestCoordinatorLifecycle: Configure/Start walk in order, Stop in
// reverse, and a failed Start rolls back the already-started prefix.
func TestCoordinatorLifecycle(t *testing.T) {
	var log []string
	a := &fakeModule{name: "a", log: &log}
	b := &fakeModule{name: "b", log: &log}
	c := NewCoordinator(a, b)
	if err := c.Configure(); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if err := c.Stop(); err != nil {
		t.Fatal(err)
	}
	want := "[conf:a conf:b start:a start:b stop:b stop:a]"
	if got := fmt.Sprint(log); got != want {
		t.Errorf("lifecycle order %v, want %v", got, want)
	}

	// Start failure in the middle: the started prefix stops in reverse,
	// the failing module and everything after it are never stopped.
	log = nil
	bad := &fakeModule{name: "bad", log: &log, failStart: true}
	tail := &fakeModule{name: "tail", log: &log}
	c = NewCoordinator(a, bad, tail)
	if err := c.Configure(); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err == nil {
		t.Fatal("Start succeeded past a failing module")
	}
	want = "[conf:a conf:bad conf:tail start:a start:bad stop:a]"
	if got := fmt.Sprint(log); got != want {
		t.Errorf("rollback order %v, want %v", got, want)
	}

	// Configure failure stops the walk.
	log = nil
	c = NewCoordinator(&fakeModule{name: "x", log: &log, failConf: true}, a)
	if err := c.Configure(); err == nil {
		t.Fatal("Configure succeeded past a failing module")
	}
	if got := fmt.Sprint(log); got != "[conf:x]" {
		t.Errorf("configure walk continued past failure: %v", got)
	}
}

// TestMemBackendGC: the in-memory backend evicts oldest insertion
// first, key tiebreak, and a re-put keeps the original age.
func TestMemBackendGC(t *testing.T) {
	b := NewMemBackend()
	specs := make([]scenario.Spec, 4)
	keys := make([]string, 4)
	out, err := scenario.Run(testSpec(24))
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		specs[i] = testSpec(24 + float64(i))
		keys[i], _ = scenario.Key(specs[i])
		if err := b.Put(ctx, specs[i], out); err != nil {
			t.Fatal(err)
		}
	}
	// Re-put the oldest: it must stay the oldest.
	if err := b.Put(ctx, specs[0], out); err != nil {
		t.Fatal(err)
	}
	res, err := b.GC(ctx, scenario.GCConfig{MaxCells: 2})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(res.Evicted) != fmt.Sprint(keys[:2]) {
		t.Errorf("evicted %v, want %v (insertion order, re-put keeps age)", res.Evicted, keys[:2])
	}
	if n, _ := b.Len(ctx); n != 2 {
		t.Errorf("Len = %d after GC, want 2", n)
	}
	if _, err := b.GC(ctx, scenario.GCConfig{}); err == nil {
		t.Error("GC accepted an empty cap set")
	}
}

// TestStorageCaps: with caps configured the storage module trims after
// every Put and accounts the evictions.
func TestStorageCaps(t *testing.T) {
	s := NewStorage(NewMemBackend(), scenario.GCConfig{MaxCells: 2})
	if err := s.Configure(); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.Stop(); err != nil {
			t.Error(err)
		}
	}()
	out, err := scenario.Run(testSpec(24))
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for i := 0; i < 3; i++ {
		spec := testSpec(24 + float64(i))
		key, _ := scenario.Key(spec)
		keys = append(keys, key)
		if err := s.Put(ctx, spec, out); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := s.Len(ctx); err != nil || n != 2 {
		t.Fatalf("Len = %d (%v), want 2 under MaxCells=2", n, err)
	}
	if _, ok, err := s.Get(ctx, keys[0]); err != nil || ok {
		t.Errorf("oldest cell survived the cap: ok=%v err=%v", ok, err)
	}
	st, err := s.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Puts != 3 || st.Evicted != 1 || st.Cells != 2 {
		t.Errorf("stats = %+v, want 3 puts / 1 evicted / 2 cells", st)
	}

	// A capped configuration without a GC-capable backend is a
	// configuration error, not a silent unbounded cache.
	bare := NewStorage(nopBackend{}, scenario.GCConfig{MaxCells: 1})
	if err := bare.Configure(); err == nil {
		t.Error("Configure accepted caps on a backend without GC")
	}
}

// nopBackend implements Backend but not GCBackend.
type nopBackend struct{}

func (nopBackend) Name() string { return "nop" }
func (nopBackend) Get(context.Context, string) (*scenario.Outcome, bool, error) {
	return nil, false, nil
}
func (nopBackend) Put(context.Context, scenario.Spec, *scenario.Outcome) error { return nil }
func (nopBackend) List(context.Context) ([]scenario.CellInfo, error)           { return nil, nil }
func (nopBackend) Len(context.Context) (int, error)                            { return 0, nil }

// TestSingleflightAndByteIdentity is the tentpole's core contract in one
// scene: k concurrent submits of one never-seen spec cost exactly one
// simulation (probe-verified), and every HTTP-fetched outcome is
// byte-identical to a direct scenario.Run.
func TestSingleflightAndByteIdentity(t *testing.T) {
	spec := testSpec(30)
	ticksBefore := scenario.ProbeSimTicks()
	want, err := scenario.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	oneRun := scenario.ProbeSimTicks() - ticksBefore
	if oneRun <= 0 {
		t.Fatalf("reference run moved the tick probe by %d", oneRun)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}

	d := startDaemon(t, Config{Shards: 4})
	c := NewClient(d.BaseURL())

	const k = 12
	start := scenario.ProbeSimTicks()
	var wg sync.WaitGroup
	results := make([]JobStatus, k)
	errs := make([]error, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = c.Submit(ctx, spec, true)
		}(i)
	}
	wg.Wait()
	if d := scenario.ProbeSimTicks() - start; d != oneRun {
		t.Errorf("%d concurrent submits simulated %d ticks, want one run's %d", k, d, oneRun)
	}
	for i := 0; i < k; i++ {
		if errs[i] != nil {
			t.Fatalf("submit %d: %v", i, errs[i])
		}
		if results[i].State != StateDone {
			t.Fatalf("submit %d finished %s: %s", i, results[i].State, results[i].Error)
		}
		got, err := json.Marshal(results[i].Outcome)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(wantJSON) {
			t.Errorf("submit %d outcome differs from direct scenario.Run", i)
		}
	}

	qs := d.Queue().Stats()
	if qs.Submitted != k || qs.Simulated != 1 {
		t.Errorf("queue stats %+v: want %d submitted, 1 simulated", qs, k)
	}
	if qs.CacheHits+qs.Coalesced != k-1 {
		t.Errorf("queue stats %+v: want %d hits+coalesced", qs, k-1)
	}

	// The poll path returns the same bytes from the store.
	st, err := c.Get(ctx, results[0].Key)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Cached || st.State != StateDone {
		t.Errorf("poll after completion: %+v, want cached done", st)
	}
	got, _ := json.Marshal(st.Outcome)
	if string(got) != string(wantJSON) {
		t.Error("polled outcome differs from direct scenario.Run")
	}
}

// TestWarmRestartServesFromStore: a second daemon over the same store
// directory answers a known spec from disk with zero simulation.
func TestWarmRestartServesFromStore(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(31)

	d1 := startDaemon(t, Config{StoreDir: dir})
	st, err := NewClient(d1.BaseURL()).Submit(ctx, spec, true)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.Cached {
		t.Fatalf("first submit: %+v, want fresh done", st)
	}
	if err := d1.Stop(); err != nil {
		t.Fatal(err)
	}

	d2, err := New(Config{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := d2.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := d2.Stop(); err != nil {
			t.Error(err)
		}
	}()
	before := scenario.ProbeSimTicks()
	st2, err := NewClient(d2.BaseURL()).Submit(ctx, spec, true)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != StateDone || !st2.Cached {
		t.Fatalf("warm submit: %+v, want cached done", st2)
	}
	if d := scenario.ProbeSimTicks() - before; d != 0 {
		t.Errorf("warm submit simulated %d ticks, want 0", d)
	}
	a, _ := json.Marshal(st.Outcome)
	b, _ := json.Marshal(st2.Outcome)
	if string(a) != string(b) {
		t.Error("outcome changed across daemon restart")
	}
}

// TestHTTPValidation: malformed and unknown requests map to 400/404,
// not 500s or silent acceptance.
func TestHTTPValidation(t *testing.T) {
	d := startDaemon(t, Config{})
	c := NewClient(d.BaseURL())

	// Invalid spec (unknown kind): 400.
	if _, err := c.Submit(ctx, scenario.Spec{Kind: "warp"}, false); err == nil {
		t.Error("invalid spec accepted")
	} else if se, ok := err.(*StatusError); !ok || se.Code != 400 {
		t.Errorf("invalid spec: %v, want HTTP 400", err)
	}

	// Unknown key: 404, recognizable via IsNotFound.
	if _, err := c.Get(ctx, "deadbeef"); !IsNotFound(err) {
		t.Errorf("unknown key: %v, want 404", err)
	}

	// A typoed field must be rejected, not silently dropped from the
	// content hash (strict decoding).
	resp, err := c.hc.Post(d.BaseURL()+"/v1/scenarios", "application/json",
		strings.NewReader(`{"kind":"single","durration":600}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("unknown field: HTTP %d, want 400", resp.StatusCode)
	}
}

// TestListAndStats: the listing reflects stored cells, the stats
// endpoint the engine accounting.
func TestListAndStats(t *testing.T) {
	d := startDaemon(t, Config{})
	c := NewClient(d.BaseURL())
	for i := 0; i < 2; i++ {
		if _, err := c.Submit(ctx, testSpec(40+float64(i)), true); err != nil {
			t.Fatal(err)
		}
	}
	lr, err := c.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(lr.Cells) != 2 || len(lr.Inflight) != 0 {
		t.Fatalf("list = %d cells / %d inflight, want 2 / 0", len(lr.Cells), len(lr.Inflight))
	}
	for i := 1; i < len(lr.Cells); i++ {
		if lr.Cells[i-1].Key >= lr.Cells[i].Key {
			t.Error("listing not sorted by key")
		}
	}
	sr, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Queue.Simulated != 2 || sr.SimRuns < 2 || sr.SimTicks <= 0 {
		t.Errorf("stats = %+v, want 2 simulations with ticks accounted", sr)
	}
	if sr.Storage.Puts != 2 || sr.Storage.Cells != 2 {
		t.Errorf("storage stats = %+v, want 2 puts / 2 cells", sr.Storage)
	}
}

// TestStoppedQueueRejectsSubmits: after Stop the queue answers
// ErrStopped instead of queueing into a dead worker set.
func TestStoppedQueueRejectsSubmits(t *testing.T) {
	d, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	if err := d.Stop(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Queue().Submit(ctx, testSpec(24)); err != ErrStopped {
		t.Errorf("submit after stop: %v, want ErrStopped", err)
	}
	// Stopped storage answers ErrStopped too (not a panic).
	if _, _, err := d.Storage().Get(ctx, "deadbeef"); err != ErrStopped {
		t.Errorf("storage get after stop: %v, want ErrStopped", err)
	}
}
