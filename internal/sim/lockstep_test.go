package sim

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/units"
	"repro/internal/workload"
)

// feedbackPolicy is a stateful closed-loop test policy: it integrates the
// measured temperature error toward a set-point, bleeds the integrator
// every 60 s of simulated time and throttles on violations, exercising
// every Observation field so a divergence from sim.Run anywhere in the
// loop — including a lane stepped on the wrong clock — shows up in the
// results.
type feedbackPolicy struct {
	ref  units.Celsius
	gain float64
	acc  float64
	cap  units.Utilization
}

func (p *feedbackPolicy) Name() string { return "feedback" }

func (p *feedbackPolicy) Step(obs Observation) Command {
	p.acc += float64(obs.Measured - p.ref)
	if int(obs.T)%60 == 0 {
		p.acc *= 0.5
	}
	fan := units.RPM(3000 + p.gain*p.acc)
	if obs.Violated {
		p.cap -= 0.01
	} else if obs.Delivered >= obs.Demand {
		p.cap += 0.02
	}
	p.cap = units.ClampUtil(p.cap)
	if p.cap < 0.4 {
		p.cap = 0.4
	}
	return Command{Fan: fan, Cap: p.cap}
}

func (p *feedbackPolicy) Reset() { p.acc = 0; p.cap = 1 }

// lockstepJobs builds n same-clock jobs over a realistic workload mix
// (noisy square, Markov bursts, spiky batch, PRBS) with per-job seeds,
// warm starts on the odd lanes and trace recording on a couple of lanes.
func lockstepJobs(t testing.TB, n int) []Job {
	t.Helper()
	cfg := Default()
	cfg.Ambient = 30
	jobs := make([]Job, n)
	for i := 0; i < n; i++ {
		var gen workload.Generator
		var err error
		switch i % 4 {
		case 0:
			gen, err = workload.NewNoisy(workload.PaperSquare(400), 0.04, cfg.Tick, int64(i+1))
		case 1:
			gen = workload.Markov{IdleU: 0.15, BusyU: 0.85, Dwell: 45,
				PIdleToBusy: 0.25, PBusyToIdle: 0.2, Seed: int64(i + 1)}
		case 2:
			var noisy *workload.Noisy
			noisy, err = workload.NewNoisy(workload.Constant{U: 0.65}, 0.05, cfg.Tick, int64(i+1))
			if err == nil {
				gen, err = workload.NewSpiky(noisy, workload.PeriodicSpikes(100, 300, 30, 1.0, 3))
			}
		default:
			gen = workload.PRBS{Low: 0.2, High: 0.8, Dwell: 90, Seed: int64(i + 1)}
		}
		if err != nil {
			t.Fatal(err)
		}
		rc := RunConfig{
			Duration: 600,
			Workload: gen,
			Policy:   &feedbackPolicy{ref: 70, gain: 15, cap: 1},
		}
		if i%2 == 1 {
			rc.WarmStart = &WarmPoint{Util: 0.2, Fan: 1500}
		}
		if i%5 == 2 {
			rc.Record = true
		} else if i%3 == 1 {
			rc.RecordPower = true
		}
		jobs[i] = Job{Name: fmt.Sprintf("lane-%d", i), Server: Factory(cfg), Config: rc}
	}
	return jobs
}

// runEach is the independent reference the lockstep engine must match:
// every job on a fresh server through the plain single-run loop.
func runEach(t testing.TB, jobs []Job) []*Result {
	t.Helper()
	results := make([]*Result, len(jobs))
	for i, j := range jobs {
		server, err := j.Server()
		if err != nil {
			t.Fatal(err)
		}
		if results[i], err = Run(server, j.Config); err != nil {
			t.Fatal(err)
		}
	}
	return results
}

// requireSameResults fails unless got reproduces want bit for bit —
// metrics and traces.
func requireSameResults(t *testing.T, label string, got, want []*Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Metrics != want[i].Metrics {
			t.Fatalf("%s lane %d: lockstep metrics %+v != sim.Run %+v", label, i, got[i].Metrics, want[i].Metrics)
		}
		if !reflect.DeepEqual(got[i].Traces, want[i].Traces) {
			t.Fatalf("%s lane %d: lockstep traces differ from sim.Run", label, i)
		}
	}
}

// TestLockstepMatchesRun: the lockstep runner must reproduce per-job
// sim.Run results bit for bit — metrics and traces — across batch sizes
// and worker counts.
func TestLockstepMatchesRun(t *testing.T) {
	for _, n := range []int{1, 3, 8} {
		want := runEach(t, lockstepJobs(t, n))
		for _, workers := range []int{1, 2, 4, 0} {
			got, err := RunLockstep(lockstepJobs(t, n), BatchOptions{Workers: workers})
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			requireSameResults(t, fmt.Sprintf("n=%d workers=%d", n, workers), got, want)
		}
	}
}

// TestLockstepWarmRerunIdentical: re-stepping a warm instance must
// reproduce its first pass exactly — the property the fleet fixed point
// relies on when it reuses one rack instance across relaxation passes.
func TestLockstepWarmRerunIdentical(t *testing.T) {
	ls, err := NewLockstep(lockstepJobs(t, 5), BatchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	first, err := ls.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Results alias lockstep-owned storage: snapshot pass one.
	snap := make([]Metrics, len(first))
	for i, r := range first {
		snap[i] = r.Metrics
	}
	for rep := 0; rep < 3; rep++ {
		again, err := ls.Run()
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range again {
			if r.Metrics != snap[i] {
				t.Fatalf("rerun %d lane %d: metrics drifted: %+v != %+v", rep, i, r.Metrics, snap[i])
			}
		}
	}
}

// TestLockstepSetAmbientMatchesRebuild: re-homing a warm lane at a new
// inlet and re-running must equal building the job at that inlet from
// scratch — the fleet relaxation pass in miniature.
func TestLockstepSetAmbientMatchesRebuild(t *testing.T) {
	const n = 4
	ls, err := NewLockstep(lockstepJobs(t, n), BatchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ls.Run(); err != nil {
		t.Fatal(err)
	}
	inlets := []units.Celsius{31, 33.5, 36, 30.25}
	for i, inlet := range inlets {
		if err := ls.SetAmbient(i, inlet); err != nil {
			t.Fatal(err)
		}
		if err := ls.SetPolicy(i, &feedbackPolicy{ref: 70, gain: 15, cap: 1}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ls.Run()
	if err != nil {
		t.Fatal(err)
	}

	jobs := lockstepJobs(t, n)
	for i := range jobs {
		cfg := Default()
		cfg.Ambient = inlets[i]
		jobs[i].Server = Factory(cfg)
	}
	want := runEach(t, jobs)
	for i := range want {
		if got[i].Metrics != want[i].Metrics {
			t.Fatalf("lane %d: re-homed metrics %+v != rebuilt %+v", i, got[i].Metrics, want[i].Metrics)
		}
	}
}

// TestLockstepSetAmbientRejectsInvalid: an inlet at or above the thermal
// limit must error exactly as server construction would.
func TestLockstepSetAmbientRejectsInvalid(t *testing.T) {
	ls, err := NewLockstep(lockstepJobs(t, 2), BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ls.SetAmbient(0, 95); err == nil {
		t.Fatal("inlet above TLimit accepted")
	}
}

// TestLockstepSharedScheduleDedupe: jobs driven by the same generator
// instance share one precompiled schedule and still match sim.Run.
func TestLockstepSharedScheduleDedupe(t *testing.T) {
	cfg := Default()
	cfg.Ambient = 30
	gen, err := workload.NewNoisy(workload.PaperSquare(400), 0.04, cfg.Tick, 9)
	if err != nil {
		t.Fatal(err)
	}
	mk := func() []Job {
		jobs := make([]Job, 3)
		for i := range jobs {
			jobs[i] = Job{
				Name:   fmt.Sprintf("shared-%d", i),
				Server: Factory(cfg),
				Config: RunConfig{
					Duration: 500,
					Workload: gen, // same instance across all jobs
					Policy:   &feedbackPolicy{ref: 68 + units.Celsius(i), gain: 12, cap: 1},
				},
			}
		}
		return jobs
	}
	want := runEach(t, mk())
	got, err := RunLockstep(mk(), BatchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResults(t, "shared generator", got, want)
}

// TestLockstepMixedClocks: jobs on different durations and engine ticks
// run in one Lockstep, each cohort on its own clock. One generator
// instance drives lanes on both ticks, so the schedule cache must key on
// the clock, not the generator alone. Every lane must match sim.Run at
// any worker count. (The warm re-step of this batch is also a row of the
// repo's zero-allocation table.)
func TestLockstepMixedClocks(t *testing.T) {
	mixed := func() []Job {
		jobs := lockstepJobs(t, 6)
		slow := Default()
		slow.Ambient = 30
		slow.Tick = 2
		for _, i := range []int{1, 4, 5} {
			jobs[i].Server = Factory(slow)
		}
		jobs[4].Config.Workload = jobs[0].Config.Workload // shared across ticks
		jobs[2].Config.Duration = 450
		jobs[5].Config.Duration = 451 // 225 ticks of 2 s
		return jobs
	}
	want := runEach(t, mixed())
	for _, workers := range []int{1, 2, 4} {
		ls, err := NewLockstep(mixed(), BatchOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if len(ls.cohorts) != 4 {
			t.Fatalf("workers=%d: %d clock cohorts, want 4", workers, len(ls.cohorts))
		}
		for rep := 0; rep < 2; rep++ { // cold pass, then a warm re-step
			got, err := ls.Run()
			if err != nil {
				t.Fatal(err)
			}
			requireSameResults(t, fmt.Sprintf("workers=%d pass %d", workers, rep), got, want)
		}
	}
}

// TestLockstepRejectsSharedPolicy: two jobs may not share one
// pointer-typed policy, at construction or through SetPolicy; equal value
// policies are distinct copies and stay legal.
func TestLockstepRejectsSharedPolicy(t *testing.T) {
	jobs := lockstepJobs(t, 2)
	shared := &feedbackPolicy{ref: 70, gain: 15, cap: 1}
	jobs[0].Config.Policy = shared
	jobs[1].Config.Policy = shared
	var be *BatchError
	if _, err := NewLockstep(jobs, BatchOptions{}); !errors.As(err, &be) {
		t.Fatalf("shared policy accepted: %v", err)
	} else if be.Index != 1 {
		t.Errorf("shared policy blamed on job %d, want 1", be.Index)
	}

	ls, err := NewLockstep(lockstepJobs(t, 2), BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ls.SetPolicy(0, ls.lanes[1].policy); err == nil {
		t.Fatal("SetPolicy accepted a policy aliased with another lane")
	}
	if err := ls.SetPolicy(0, nil); err == nil {
		t.Fatal("SetPolicy accepted nil")
	}
}

// TestRunBatchAllowsEqualValuePolicies: the aliasing guard compares
// policy identity, not value, so two lanes holding equal value-type
// policies run to completion.
func TestRunBatchAllowsEqualValuePolicies(t *testing.T) {
	jobs := lockstepJobs(t, 2)
	jobs[0].Config.Policy = HoldPolicy{Fan: 2000}
	jobs[1].Config.Policy = HoldPolicy{Fan: 2000} // equal value, not aliased state
	results, err := RunLockstep(jobs, BatchOptions{})
	if err != nil {
		t.Fatalf("equal value policies rejected: %v", err)
	}
	for i, r := range results {
		if r == nil {
			t.Errorf("job %d: no result", i)
		}
	}
}

// TestLockstepConstructionErrors: per-job defects surface as *BatchError
// with the failing index.
func TestLockstepConstructionErrors(t *testing.T) {
	for name, mutate := range map[string]func([]Job){
		"nil-factory":  func(js []Job) { js[1].Server = nil },
		"nil-workload": func(js []Job) { js[1].Config.Workload = nil },
		"nil-policy":   func(js []Job) { js[1].Config.Policy = nil },
		"bad-duration": func(js []Job) { js[1].Config.Duration = -1 },
	} {
		jobs := lockstepJobs(t, 3)
		mutate(jobs)
		var be *BatchError
		if _, err := NewLockstep(jobs, BatchOptions{}); !errors.As(err, &be) {
			t.Errorf("%s: err = %v, want *BatchError", name, err)
		} else if be.Index != 1 {
			t.Errorf("%s: error blames job %d, want 1", name, be.Index)
		}
	}
}

// TestRunLockstepErrorNamesLowestIndex: with several defective jobs —
// caught at validation and at server construction — the *BatchError names
// the lowest failing index, and no partial results come back.
func TestRunLockstepErrorNamesLowestIndex(t *testing.T) {
	jobs := lockstepJobs(t, 5)
	jobs[1].Server = func() (*PhysicalServer, error) { return nil, errors.New("no platform") }
	jobs[2].Config.Duration = -1
	jobs[4].Config.Workload = nil
	for _, workers := range []int{1, 4} {
		results, err := RunLockstep(jobs, BatchOptions{Workers: workers})
		var be *BatchError
		if !errors.As(err, &be) {
			t.Fatalf("workers=%d: defective jobs accepted: %v", workers, err)
		}
		if be.Index != 1 || be.Name != "lane-1" {
			t.Errorf("workers=%d: error blames job %d (%s), want 1 (lane-1)", workers, be.Index, be.Name)
		}
		if results != nil {
			t.Errorf("workers=%d: got %d partial results beside the error", workers, len(results))
		}
	}
}

// TestSweepOrderStable: a one-axis parameter sweep run as one batch lands
// every result in its sweep slot at any worker count — a higher fan speed
// must map monotonically to a lower mean junction.
func TestSweepOrderStable(t *testing.T) {
	jobs := make([]Job, 4)
	for i := range jobs {
		jobs[i] = Job{
			Server: Factory(Default()),
			Config: RunConfig{
				Duration: 300,
				Workload: workload.Constant{U: 0.7},
				Policy:   HoldPolicy{Fan: units.RPM(1500 + 1000*i)},
			},
		}
	}
	for _, workers := range []int{1, 4} {
		results, err := RunLockstep(jobs, BatchOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(results); i++ {
			if results[i].Metrics.MeanJunction >= results[i-1].Metrics.MeanJunction {
				t.Errorf("workers=%d: sweep slot %d (%.2f C) not cooler than slot %d (%.2f C): order unstable?",
					workers, i, float64(results[i].Metrics.MeanJunction),
					i-1, float64(results[i-1].Metrics.MeanJunction))
			}
		}
	}
}

// TestLockstepEmpty: an empty batch runs to an empty result set.
func TestLockstepEmpty(t *testing.T) {
	ls, err := NewLockstep(nil, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	results, err := ls.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 0 {
		t.Fatalf("empty lockstep returned %d results", len(results))
	}
}

// TestLockstepDemandScale: a unit scale is bit-transparent, a fractional
// scale multiplies the effective demand (clamped at full load), and the
// precompiled schedule itself — possibly shared between lanes — is never
// mutated, so scaling one lane cannot leak into another.
func TestLockstepDemandScale(t *testing.T) {
	gen := workload.Constant{U: 0.6}
	mkJobs := func() []Job {
		cfg := Default()
		cfg.Ambient = 30
		jobs := make([]Job, 2)
		for i := range jobs {
			jobs[i] = Job{
				Name:   fmt.Sprintf("n%d", i),
				Server: Factory(cfg),
				Config: RunConfig{
					Duration: 300,
					Workload: gen, // shared generator: one compiled schedule
					Policy:   &feedbackPolicy{ref: 70, gain: 15, cap: 1},
				},
			}
		}
		return jobs
	}

	base, err := RunLockstep(mkJobs(), BatchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	ls, err := NewLockstep(mkJobs(), BatchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := ls.SetDemandScale(0, 1); err != nil {
		t.Fatal(err)
	}
	unit, err := ls.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i := range unit {
		if !reflect.DeepEqual(unit[i].Metrics, base[i].Metrics) {
			t.Errorf("lane %d: unit scale changed the run", i)
		}
	}

	// Scale lane 0 down: its mean demand drops by the factor; lane 1,
	// sharing the same compiled schedule, is untouched.
	if err := ls.SetDemandScale(0, 0.5); err != nil {
		t.Fatal(err)
	}
	if got := ls.DemandScale(0); got != 0.5 {
		t.Fatalf("DemandScale = %v", got)
	}
	scaled, err := ls.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := float64(scaled[0].Metrics.MeanDemand), 0.3; !approxEq(got, want, 1e-12) {
		t.Errorf("scaled lane mean demand %v, want %v", got, want)
	}
	if !reflect.DeepEqual(scaled[1].Metrics, base[1].Metrics) {
		t.Error("scaling lane 0 leaked into lane 1")
	}
	if got := ls.MeanDemand(0); !approxEq(got, 0.6, 1e-12) {
		t.Errorf("MeanDemand reports the scaled schedule: %v", got)
	}

	// Scaling past full load clamps at 1.
	if err := ls.SetDemandScale(0, 2.5); err != nil {
		t.Fatal(err)
	}
	clamped, err := ls.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := float64(clamped[0].Metrics.MeanDemand); got != 1 {
		t.Errorf("overdriven lane mean demand %v, want clamp at 1", got)
	}

	// Restore to 1: bit-identical to the unscaled run again.
	if err := ls.SetDemandScale(0, 1); err != nil {
		t.Fatal(err)
	}
	back, err := ls.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i := range back {
		if !reflect.DeepEqual(back[i].Metrics, base[i].Metrics) {
			t.Errorf("lane %d: scale restore not bit-transparent", i)
		}
	}

	// Degenerate scales are rejected.
	if err := ls.SetDemandScale(0, -0.1); err == nil {
		t.Error("negative scale accepted")
	}
	if err := ls.SetDemandScale(0, math.Inf(1)); err == nil {
		t.Error("non-finite scale accepted")
	}
}

func approxEq(a, b, tol float64) bool {
	d := a - b
	return d <= tol && -d <= tol
}
