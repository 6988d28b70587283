package sim

import (
	"fmt"
	"reflect"
	"runtime"

	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/workload"
)

// This file is the lockstep structure-of-arrays batch engine, the one
// engine every multi-run caller shares: a Lockstep advances N servers one
// tick at a time from a single warm instance. Construction does all the
// expensive, pass-invariant work once — servers are built, workload
// generators are precompiled into per-tick demand schedules (deduplicated
// across jobs sharing a generator, e.g. the five Table III solutions fed
// by one trace), and every result, metrics accumulator and recorded series
// is preallocated — so re-stepping the batch is allocation-free and skips
// the per-tick workload evaluation entirely. The fleet layer's
// recirculation fixed point re-runs the same rack with updated inlet
// temperatures every relaxation pass; holding one warm Lockstep per rack
// turns each pass into a pure re-step.
//
// Results are bit-identical to running each job through sim.Run on a
// fresh server: every lane owns its server and policy, performs exactly
// the floating-point operations sim.Run would, in the same order, and the
// tick-major schedule cannot couple lanes. Tests assert DeepEqual against
// per-job sim.Run across batch sizes and worker counts.
//
// Jobs may run on different clocks (engine tick, duration). Construction
// groups the lanes into cohorts by (tick, tick count); each cohort
// advances tick-major on its own clock, and a batch on one clock is a
// single cohort.

// lane is one server's slot in the lockstep batch.
type lane struct {
	name   string
	server *PhysicalServer
	policy Policy
	warm   *WarmPoint
	tick   units.Seconds       // the server's engine step
	nTicks int                 // ticks per run on that step
	demand []units.Utilization // precompiled schedule, one entry per tick
	// scale multiplies the precompiled schedule at step time (results
	// clamped to [0, 1]); 1 leaves the schedule untouched bit for bit. The
	// fleet coordinator migrates divisible workload share between rack
	// nodes by adjusting lane scales between relaxations.
	scale float64

	record      bool
	recordPower bool

	// Reused output state: the result, its metrics, and (lazily built,
	// then retained) the recorded series. Returned results alias these
	// and stay valid until the next Run.
	result   Result
	prev     TickResult
	tsFull   *trace.Set
	tsPower  *trace.Set
	sDemand  *trace.Series
	sDeliv   *trace.Series
	sCap     *trace.Series
	sFanCmd  *trace.Series
	sFanAct  *trace.Series
	sJunc    *trace.Series
	sMeas    *trace.Series
	sPower   *trace.Series
	violated int
	hwThrot  int
	sumJunc  float64
	sumFan   float64
	sumDeliv float64
	sumDem   float64
}

// cohort is a run of order positions [lo, hi) whose lanes share one clock.
type cohort struct {
	lo, hi int
	nTicks int
}

// Lockstep is a warm batch of simulations. Build one with NewLockstep,
// run it with Run, and re-step it after adjusting per-lane ambients or
// policies (SetAmbient, SetPolicy) — construction work is never repeated.
type Lockstep struct {
	workers int
	lanes   []lane // job order
	order   []int  // lane indices grouped by clock, job order within a clock
	cohorts []cohort
	results []*Result
}

// NewLockstep builds a warm lockstep batch from the jobs: servers are
// constructed (one per job, via its factory), demand schedules are
// precompiled, lanes are grouped into per-clock cohorts, and all result
// storage is preallocated. A per-job defect (nil factory, nil workload or
// policy, aliased policies, non-positive duration, a failing factory)
// returns a *BatchError naming the lowest failing job.
func NewLockstep(jobs []Job, opts BatchOptions) (*Lockstep, error) {
	ls := &Lockstep{
		workers: opts.Workers,
		lanes:   make([]lane, len(jobs)),
		results: make([]*Result, len(jobs)),
	}
	seen := make(map[Policy]int, len(jobs))
	schedules := make(map[scheduleKey][]units.Utilization, len(jobs))
	for i, j := range jobs {
		fail := func(err error) (*Lockstep, error) {
			return nil, &BatchError{Index: i, Name: j.Name, Err: err}
		}
		switch {
		case j.Server == nil:
			return fail(fmt.Errorf("nil ServerFactory"))
		case j.Config.Workload == nil:
			return fail(fmt.Errorf("nil workload"))
		case j.Config.Policy == nil:
			return fail(fmt.Errorf("nil policy"))
		case j.Config.Duration <= 0:
			return fail(fmt.Errorf("non-positive duration %v", j.Config.Duration))
		}
		// Only pointer-typed policies can alias mutable state — value
		// policies are copied into each job's interface.
		if p := j.Config.Policy; reflect.ValueOf(p).Kind() == reflect.Pointer {
			if prev, dup := seen[p]; dup {
				return fail(fmt.Errorf("shares a Policy instance with job %d; give every job its own", prev))
			}
			seen[p] = i
		}
		server, err := j.Server()
		if err != nil {
			return fail(err)
		}
		ln := &ls.lanes[i]
		ln.name = j.Name
		ln.server = server
		ln.policy = j.Config.Policy
		ln.tick = server.cfg.Tick
		ln.nTicks = int(float64(j.Config.Duration) / float64(ln.tick))
		ln.scale = 1
		ln.warm = j.Config.WarmStart
		ln.record = j.Config.Record
		ln.recordPower = j.Config.Record || j.Config.RecordPower
		ln.demand = compileSchedule(schedules, j.Config.Workload, ln.nTicks, ln.tick)
		ls.results[i] = &ln.result
	}
	ls.groupClocks()
	return ls, nil
}

// groupClocks orders the lanes into clock cohorts: lanes sharing a
// (tick, tick count) pair become contiguous in ls.order, cohorts in order
// of first appearance and lanes in job order within each.
func (ls *Lockstep) groupClocks() {
	ls.order = make([]int, 0, len(ls.lanes))
	placed := make([]bool, len(ls.lanes))
	for i := range ls.lanes {
		if placed[i] {
			continue
		}
		tick, nTicks := ls.lanes[i].tick, ls.lanes[i].nTicks
		lo := len(ls.order)
		for j := i; j < len(ls.lanes); j++ {
			if !placed[j] && ls.lanes[j].tick == tick && ls.lanes[j].nTicks == nTicks {
				placed[j] = true
				ls.order = append(ls.order, j)
			}
		}
		ls.cohorts = append(ls.cohorts, cohort{lo: lo, hi: len(ls.order), nTicks: nTicks})
	}
}

// scheduleKey identifies one compiled demand schedule: the same generator
// sampled on another clock is another schedule.
type scheduleKey struct {
	gen    workload.Generator
	tick   units.Seconds
	nTicks int
}

// compileSchedule evaluates gen at every tick into a demand schedule,
// reusing an already-compiled schedule when the same generator instance
// drives several jobs on the same clock (generators are deterministic and
// read-only, so the samples are shared safely). Only comparable generator
// types participate in deduplication.
func compileSchedule(cache map[scheduleKey][]units.Utilization,
	gen workload.Generator, nTicks int, tick units.Seconds) []units.Utilization {
	key := scheduleKey{gen: gen, tick: tick, nTicks: nTicks}
	cmp := reflect.TypeOf(gen).Comparable()
	if cmp {
		if s, ok := cache[key]; ok {
			return s
		}
	}
	s := make([]units.Utilization, nTicks)
	for k := range s {
		s[k] = gen.At(units.Seconds(float64(k) * float64(tick)))
	}
	if cmp {
		cache[key] = s
	}
	return s
}

// SetAmbient re-homes lane i's platform at a new inlet temperature. The
// next Run simulates from that operating point; an invalid combination
// (e.g. an inlet at or above the thermal limit) errors like server
// construction would.
func (ls *Lockstep) SetAmbient(i int, t units.Celsius) error {
	if err := ls.lanes[i].server.SetAmbient(t); err != nil {
		return fmt.Errorf("sim: lockstep lane %d (%s): %w", i, ls.lanes[i].name, err)
	}
	return nil
}

// SetPolicy replaces lane i's DTM policy (the fleet fixed point rebuilds
// policies against each pass's resolved inlet). The policy must not be
// shared with any other lane.
func (ls *Lockstep) SetPolicy(i int, p Policy) error {
	if p == nil {
		return fmt.Errorf("sim: lockstep lane %d (%s): nil policy", i, ls.lanes[i].name)
	}
	if reflect.ValueOf(p).Kind() == reflect.Pointer {
		for j := range ls.lanes {
			if j != i && ls.lanes[j].policy == p {
				return fmt.Errorf("sim: lockstep lane %d (%s): shares a Policy instance with lane %d", i, ls.lanes[i].name, j)
			}
		}
	}
	ls.lanes[i].policy = p
	return nil
}

// SetDemandScale multiplies lane i's precompiled demand schedule by f for
// subsequent runs; scaled samples are clamped to [0, 1] at step time. A
// scale of 1 restores the schedule bit for bit (the multiplication is
// skipped entirely). The schedule itself is never modified — scaling a
// lane whose generator is shared with other lanes affects only that lane.
func (ls *Lockstep) SetDemandScale(i int, f float64) error {
	if f < 0 || !units.IsFinite(f) {
		return fmt.Errorf("sim: lockstep lane %d (%s): bad demand scale %v", i, ls.lanes[i].name, f)
	}
	ls.lanes[i].scale = f
	return nil
}

// DemandScale returns lane i's current demand scale.
func (ls *Lockstep) DemandScale(i int) float64 { return ls.lanes[i].scale }

// MeanDemand returns the mean of lane i's unscaled precompiled demand
// schedule — the divisible workload share the fleet coordinator
// redistributes between nodes.
func (ls *Lockstep) MeanDemand(i int) float64 {
	ln := &ls.lanes[i]
	if len(ln.demand) == 0 {
		return 0
	}
	sum := 0.0
	for _, d := range ln.demand {
		sum += float64(d)
	}
	return sum / float64(len(ln.demand))
}

// MaxDemand returns the peak of lane i's unscaled precompiled demand
// schedule. The coordinator bounds a node's receivable share by its peak:
// scaling a trace whose spikes already graze full load would clamp the
// spikes and overload the node the migration meant to help.
func (ls *Lockstep) MaxDemand(i int) float64 {
	peak := 0.0
	for _, d := range ls.lanes[i].demand {
		if float64(d) > peak {
			peak = float64(d)
		}
	}
	return peak
}

// SetRecord adjusts lane i's trace capture for subsequent runs: record
// keeps the full series set, recordPower just the "total_power" series
// (implied by record). Series storage is allocated at most once per lane
// and reused across runs, so toggling recording between passes keeps
// re-stepping allocation-free.
func (ls *Lockstep) SetRecord(i int, record, recordPower bool) {
	ln := &ls.lanes[i]
	ln.record = record
	ln.recordPower = record || recordPower
}

// ensureSeries lazily builds (and then retains) the series and sets a
// lane's current record flags need.
func (ls *Lockstep) ensureSeries(ln *lane) {
	if !ln.recordPower {
		return
	}
	if ln.sPower == nil {
		ln.sPower = trace.NewSeriesCap("total_power", ln.nTicks)
	}
	if ln.record && ln.tsFull == nil {
		ln.sDemand = trace.NewSeriesCap("demand", ln.nTicks)
		ln.sDeliv = trace.NewSeriesCap("delivered", ln.nTicks)
		ln.sCap = trace.NewSeriesCap("cap", ln.nTicks)
		ln.sFanCmd = trace.NewSeriesCap("fan_cmd", ln.nTicks)
		ln.sFanAct = trace.NewSeriesCap("fan_actual", ln.nTicks)
		ln.sJunc = trace.NewSeriesCap("junction", ln.nTicks)
		ln.sMeas = trace.NewSeriesCap("measured", ln.nTicks)
		ts := trace.NewSet()
		for _, s := range []*trace.Series{ln.sDemand, ln.sDeliv, ln.sCap, ln.sFanCmd, ln.sFanAct, ln.sJunc, ln.sMeas} {
			ts.Add(s)
		}
		ts.Add(ln.sPower)
		ln.tsFull = ts
	}
	if !ln.record && ln.tsPower == nil {
		ts := trace.NewSet()
		ts.Add(ln.sPower)
		ln.tsPower = ts
	}
}

// reset returns a lane to its initial condition for a fresh run, mirroring
// the preamble of sim.Run exactly.
func (ls *Lockstep) reset(ln *lane) error {
	ln.server.Reset()
	ln.policy.Reset()
	if ln.warm != nil {
		if err := ln.server.WarmStart(ln.warm.Util, ln.warm.Fan); err != nil {
			return err
		}
	}
	ln.prev = TickResult{
		Cap:       1,
		FanCmd:    ln.server.FanCommand(),
		FanActual: ln.server.FanActual(),
		Measured:  units.Celsius(ln.server.cfg.Sensor.InitialValue),
	}
	if ln.warm != nil {
		ln.prev.Measured = ln.server.Junction()
		ln.prev.Cap = ln.server.Cap()
	}
	ln.result = Result{}
	ln.violated, ln.hwThrot = 0, 0
	ln.sumJunc, ln.sumFan, ln.sumDeliv, ln.sumDem = 0, 0, 0, 0
	ls.ensureSeries(ln)
	if ln.recordPower {
		ln.sPower.Reset()
		if ln.record {
			for _, s := range []*trace.Series{ln.sDemand, ln.sDeliv, ln.sCap, ln.sFanCmd, ln.sFanAct, ln.sJunc, ln.sMeas} {
				s.Reset()
			}
			ln.result.Traces = ln.tsFull
		} else {
			ln.result.Traces = ln.tsPower
		}
	}
	return nil
}

// step advances one lane by one tick: policy decision, actuation, platform
// tick, metrics accumulation — the body of sim.Run's loop, with the
// workload query replaced by the precompiled schedule.
func (ls *Lockstep) step(ln *lane, k int) {
	t := units.Seconds(float64(k) * float64(ln.tick))
	demand := ln.demand[k]
	if ln.scale != 1 {
		demand = units.Utilization(float64(demand) * ln.scale)
		if demand > 1 {
			demand = 1
		}
	}
	cmd := ln.policy.Step(Observation{
		T:         t,
		Measured:  ln.prev.Measured,
		Demand:    demand,
		Delivered: ln.prev.Delivered,
		Violated:  ln.prev.Violated,
		FanCmd:    ln.server.FanCommand(),
		FanActual: ln.server.FanActual(),
		Cap:       ln.server.Cap(),
	})
	ln.server.CommandFan(cmd.Fan)
	ln.server.SetCap(cmd.Cap)
	ln.server.TickInto(demand, &ln.prev)
	res := &ln.prev

	m := &ln.result.Metrics
	if res.Violated {
		ln.violated++
	}
	if res.HWThrottled {
		ln.hwThrot++
	}
	m.FanEnergy += res.FanEnergyJ
	m.CPUEnergy += res.CPUEnergyJ
	if res.Junction > m.MaxJunction {
		m.MaxJunction = res.Junction
	}
	if res.Junction > ln.server.cfg.TLimit {
		m.TimeAboveLimit += ln.server.cfg.Tick
	}
	ln.sumJunc += float64(res.Junction)
	ln.sumFan += float64(res.FanActual)
	ln.sumDeliv += float64(res.Delivered)
	ln.sumDem += float64(res.Demand)

	if ln.recordPower {
		tf := float64(res.T)
		if ln.record {
			ln.sDemand.MustAppend(tf, float64(res.Demand))
			ln.sDeliv.MustAppend(tf, float64(res.Delivered))
			ln.sCap.MustAppend(tf, float64(res.Cap))
			ln.sFanCmd.MustAppend(tf, float64(res.FanCmd))
			ln.sFanAct.MustAppend(tf, float64(res.FanActual))
			ln.sJunc.MustAppend(tf, float64(res.Junction))
			ln.sMeas.MustAppend(tf, float64(res.Measured))
		}
		ln.sPower.MustAppend(tf, float64(res.TotalPower))
	}
}

// finalize folds a lane's accumulators into its metrics, exactly as
// sim.Run does after its loop.
func (ls *Lockstep) finalize(ln *lane) {
	m := &ln.result.Metrics
	m.Ticks = ln.nTicks
	if ln.nTicks > 0 {
		n := float64(ln.nTicks)
		m.ViolationFrac = float64(ln.violated) / n
		m.HWThrottleFrac = float64(ln.hwThrot) / n
		m.MeanJunction = units.Celsius(ln.sumJunc / n)
		m.MeanFanSpeed = units.RPM(ln.sumFan / n)
		m.MeanDelivered = units.Utilization(ln.sumDeliv / n)
		m.MeanDemand = units.Utilization(ln.sumDem / n)
	}
}

// lockstepChunk bounds how many lanes advance tick-major together. A
// lane's working set (server, DTM state, sensor ring, schedule window) is
// a few kilobytes; a whole 64-lane rack swept once per tick would evict
// itself from cache every tick, so a cohort advances in chunks small
// enough to stay resident while still interleaving lanes tick by tick.
// Measured on the 64-lane benchmark: chunks of 2–4 are ~17% faster than
// 8 and ~20% faster than 32. Chunk order cannot change results — lanes
// are independent.
const lockstepChunk = 4

// runRange advances the lanes at order positions [lo, hi) through their
// horizons, tick-major within cache-sized chunks that never straddle two
// clock cohorts.
func (ls *Lockstep) runRange(lo, hi int) {
	for _, c := range ls.cohorts {
		end := min(hi, c.hi)
		for s := max(lo, c.lo); s < end; s += lockstepChunk {
			chunk := ls.order[s:min(s+lockstepChunk, end)]
			for k := 0; k < c.nTicks; k++ {
				for _, i := range chunk {
					ls.step(&ls.lanes[i], k)
				}
			}
		}
	}
}

// Run executes one batch pass: every lane is reset (and warm-started), each
// clock cohort advances tick by tick, and the per-lane results are
// returned in job order. Lanes are sharded contiguously (in cohort order)
// across the worker pool; results are bit-identical at any worker count,
// and to sim.Run on each job.
//
// The returned results (and their trace sets) are owned by the Lockstep
// and remain valid until the next Run — callers that need to retain a pass
// must copy, the same aliasing contract as the multicore scratch buffers.
// A warm Run performs zero heap allocations at Workers <= 1.
func (ls *Lockstep) Run() ([]*Result, error) {
	for i := range ls.lanes {
		if err := ls.reset(&ls.lanes[i]); err != nil {
			return nil, &BatchError{Index: i, Name: ls.lanes[i].name, Err: err}
		}
	}
	n := len(ls.lanes)
	if n == 0 {
		return ls.results, nil
	}
	workers := ls.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		ls.runRange(0, n)
	} else {
		if err := ParallelFor(workers, workers, func(w int) {
			ls.runRange(w*n/workers, (w+1)*n/workers)
		}); err != nil {
			return nil, err
		}
	}
	for i := range ls.lanes {
		ls.finalize(&ls.lanes[i])
	}
	return ls.results, nil
}

// RunLockstep executes the jobs as a one-shot lockstep batch. On error it
// returns no results: the *BatchError names the lowest failing job.
func RunLockstep(jobs []Job, opts BatchOptions) ([]*Result, error) {
	ls, err := NewLockstep(jobs, opts)
	if err != nil {
		return nil, err
	}
	return ls.Run()
}
