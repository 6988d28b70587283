package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/multicore"
	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/thermal"
	"repro/internal/units"
	"repro/internal/workload"
)

// Direct layer probes: each times calls into one layer's public
// functions from outside the program, on an otherwise idle process, and
// normalizes to that layer's unit of work.

// probeReps is how many timed repetitions each probe takes; the median
// is reported.
const probeReps = 5

// timeEach runs fn reps times and returns the median duration of one of
// n calls (fn performs n calls per repetition).
func timeEach(n int, fn func() error) (time.Duration, error) {
	xs := make([]float64, probeReps)
	for r := range xs {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		xs[r] = float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	return time.Duration(median(xs)), nil
}

// allocsEach counts heap allocations per call over n calls.
func allocsEach(n int, fn func() error) (float64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := fn(); err != nil {
		return 0, err
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n), nil
}

// engineProbes times the engine rungs: one RK4 step of the two-node
// server network, one lane of an 8-lane batch step, one closed-loop
// server tick, one multicore tick, and scenario.Run per mix kind.
func engineProbes(seed int64, m metrics) error {
	const steps = 100_000
	net, err := starNetwork(2)
	if err != nil {
		return err
	}
	d, err := timeEach(steps, func() error {
		for i := 0; i < steps; i++ {
			if err := net.Step(1); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("thermal.network_step_ns", ns(d))

	const lanes = 8
	bn, err := starBatch(2, lanes)
	if err != nil {
		return err
	}
	d, err = timeEach(steps/lanes*lanes, func() error {
		for i := 0; i < steps/lanes; i++ {
			if err := bn.Step(1); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("thermal.batch_step_ns_per_lane", ns(d))

	h, err := newTickHarness()
	if err != nil {
		return err
	}
	d, err = timeEach(steps, func() error {
		for i := 0; i < steps; i++ {
			h.step()
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("sim.server_tick_ns", ns(d))

	mc, util, err := multicoreHarness()
	if err != nil {
		return err
	}
	const mcSteps = 20_000
	d, err = timeEach(mcSteps, func() error {
		for i := 0; i < mcSteps; i++ {
			if _, err := mc.Tick(util); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("multicore.tick_ns", ns(d))

	// scenario.Run per kind, on specs of the sweep-cold mix, single-
	// threaded: under the benchmark's load each request gets about one
	// core, so this is the engine work a miss waits for.
	var total time.Duration
	var ticks int64
	var mix float64
	for _, kind := range mixKinds {
		xs := make([]float64, 3)
		for i := range xs {
			s, err := mixSpec("probe", seed, i, kind, coldHorizons)
			if err != nil {
				return err
			}
			s.Workers = 1
			t0 := scenario.ProbeSimTicks()
			start := time.Now()
			if _, err := scenario.Run(s); err != nil {
				return err
			}
			el := time.Since(start)
			total += el
			ticks += scenario.ProbeSimTicks() - t0
			xs[i] = float64(el.Nanoseconds()) / 1e6
		}
		m.set("scenario.run_ms."+kind, median(xs))
		mix += median(xs) / float64(len(mixKinds))
	}
	m.set("scenario.run_ms.mix", mix)
	m.set("scenario.ns_per_tick", float64(total.Nanoseconds())/float64(ticks))
	return nil
}

func ns(d time.Duration) float64 { return float64(d.Nanoseconds()) }

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// starNetwork is an n-node star: n-1 loaded nodes around one
// ambient-coupled sink (n = 2 is the die/sink server shape).
func starNetwork(n int) (*thermal.Network, error) {
	net, err := thermal.NewNetwork(n, 25)
	if err != nil {
		return nil, err
	}
	sink := n - 1
	if err := net.SetCapacitance(sink, 500); err != nil {
		return nil, err
	}
	if err := net.ConnectAmbient(sink, 0.05); err != nil {
		return nil, err
	}
	for i := 0; i < sink; i++ {
		if err := net.SetCapacitance(i, 50); err != nil {
			return nil, err
		}
		if err := net.Connect(i, sink, 0.5); err != nil {
			return nil, err
		}
		net.SetLoad(i, 10)
	}
	return net, net.Step(1)
}

// starBatch is starNetwork as a b-lane lockstep batch.
func starBatch(n, b int) (*thermal.BatchNetwork, error) {
	bn, err := thermal.NewBatchNetwork(n, b, 25)
	if err != nil {
		return nil, err
	}
	sink := n - 1
	if err := bn.SetCapacitance(sink, 500); err != nil {
		return nil, err
	}
	if err := bn.ConnectAmbient(sink, 0.05); err != nil {
		return nil, err
	}
	for i := 0; i < sink; i++ {
		if err := bn.SetCapacitance(i, 50); err != nil {
			return nil, err
		}
		if err := bn.Connect(i, sink, 0.5); err != nil {
			return nil, err
		}
		for s := 0; s < b; s++ {
			bn.SetLoad(i, s, 10)
		}
	}
	return bn, bn.Step(1)
}

// tickHarness is one warm closed loop: the paper's full DTM stack on a
// Table I platform under a noisy square wave.
type tickHarness struct {
	server *sim.PhysicalServer
	policy sim.Policy
	gen    workload.Generator
	tick   units.Seconds
	prev   sim.TickResult
	k      int
}

func newTickHarness() (*tickHarness, error) {
	cfg := sim.Default()
	cfg.Ambient = 33
	pol, err := core.NewFullStack(cfg)
	if err != nil {
		return nil, err
	}
	gen, err := workload.NewNoisy(workload.PaperSquare(600), 0.04, cfg.Tick, 42)
	if err != nil {
		return nil, err
	}
	server, err := sim.NewPhysicalServer(cfg)
	if err != nil {
		return nil, err
	}
	if err := server.WarmStart(0.1, 1200); err != nil {
		return nil, err
	}
	h := &tickHarness{server: server, policy: pol, gen: gen, tick: cfg.Tick}
	h.prev = sim.TickResult{Cap: 1, FanCmd: server.FanCommand(), FanActual: server.FanActual(), Measured: server.Junction()}
	for i := 0; i < 300; i++ {
		h.step()
	}
	return h, nil
}

// step is one engine tick: policy decision, actuation, platform tick.
func (h *tickHarness) step() {
	t := units.Seconds(float64(h.k) * float64(h.tick))
	demand := h.gen.At(t)
	cmd := h.policy.Step(sim.Observation{
		T: t, Measured: h.prev.Measured, Demand: demand, Delivered: h.prev.Delivered,
		Violated: h.prev.Violated, FanCmd: h.server.FanCommand(),
		FanActual: h.server.FanActual(), Cap: h.server.Cap(),
	})
	h.server.CommandFan(cmd.Fan)
	h.server.SetCap(cmd.Cap)
	h.prev = h.server.Tick(demand)
	h.k++
}

func multicoreHarness() (*multicore.Server, []units.Utilization, error) {
	cfg := multicore.DefaultConfig()
	server, err := multicore.NewServer(cfg)
	if err != nil {
		return nil, nil, err
	}
	server.CommandFan(4000)
	util := multicore.SplitEven(0.6, cfg.NCore)
	for i := 0; i < 200; i++ {
		if _, err := server.Tick(util); err != nil {
			return nil, nil, err
		}
	}
	return server, util, nil
}

// probeCells is the number of cells the read- and write-path probes use.
const probeCells = 64

// storeProbes times the scenario layer's read and write path (Validate,
// Key, Store.GetKey, Store.Put, Store.List) and the daemon's read ladder
// (Queue.Submit, an HTTP hit) and remote tier (RemoteBackend Get and
// Fetch) on an idle daemon. dir is the workload's store; on sweep-cold,
// which has none, a small store of mix cells is built first.
func (b *bench) storeProbes(dir string, m metrics) error {
	probe := make([]cell, 0, probeCells)
	if dir == "" {
		dir = filepath.Join(b.work, "probe-store")
		st, err := scenario.OpenStore(dir)
		if err != nil {
			return err
		}
		for i := 0; i < probeCells; i++ {
			kind := mixKinds[i%len(mixKinds)]
			s, err := mixSpec("probe-store", b.seed, i, kind, fixtureHorizons)
			if err != nil {
				return err
			}
			out, err := scenario.Run(s)
			if err != nil {
				return err
			}
			if err := st.Put(s, out); err != nil {
				return err
			}
			key, _ := scenario.Key(s)
			probe = append(probe, cell{spec: s, key: key})
		}
	} else {
		probe = append(probe, b.cells[:probeCells]...)
	}
	st, err := scenario.OpenStore(dir)
	if err != nil {
		return err
	}
	outs := make([]*scenario.Outcome, len(probe))
	for i, c := range probe {
		out, ok, err := st.GetKey(c.key)
		if err != nil || !ok {
			return fmt.Errorf("probe cell %s missing from the store (%v)", c.spec.Name, err)
		}
		outs[i] = out
	}
	const rounds = 20
	n := rounds * len(probe)
	each := func(fn func(c cell, i int) error) func() error {
		return func() error {
			for r := 0; r < rounds; r++ {
				for i, c := range probe {
					if err := fn(c, i); err != nil {
						return err
					}
				}
			}
			return nil
		}
	}
	validate := each(func(c cell, _ int) error { return c.spec.Validate() })
	key := each(func(c cell, _ int) error { _, err := scenario.Key(c.spec); return err })
	get := each(func(c cell, _ int) error {
		_, ok, err := st.GetKey(c.key)
		if err == nil && !ok {
			err = fmt.Errorf("store miss on %s", c.key)
		}
		return err
	})
	for _, p := range []struct {
		name string
		fn   func() error
	}{{"scenario.validate_us", validate}, {"scenario.key_us", key}, {"scenario.store_get_us", get}} {
		d, err := timeEach(n, p.fn)
		if err != nil {
			return err
		}
		m.set(p.name, us(d))
	}
	allocs, err := allocsEach(n, get)
	if err != nil {
		return err
	}
	m.set("scenario.store_get_allocs", allocs)

	// Put into fresh stores, one per repetition.
	rep := 0
	d, err := timeEach(len(probe), func() error {
		rep++
		ps, err := scenario.OpenStore(filepath.Join(b.work, fmt.Sprintf("put-%d", rep)))
		if err != nil {
			return err
		}
		for i, c := range probe {
			if err := ps.Put(c.spec, outs[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("scenario.store_put_us", us(d))
	d, err = timeEach(1, func() error { _, err := st.List(); return err })
	if err != nil {
		return err
	}
	m.set("scenario.store_list_ms", us(d)/1e3)

	return b.daemonProbes(dir, probe, m)
}

// daemonProbes times the read ladder above the store on an idle daemon
// serving dir, then reads the same cells through a RemoteBackend that
// fronts the daemon from an empty local tier.
func (b *bench) daemonProbes(dir string, probe []cell, m metrics) (err error) {
	ctx := context.Background()
	d, err := service.New(service.Config{StoreDir: dir})
	if err != nil {
		return err
	}
	if err := d.Start(); err != nil {
		return err
	}
	defer func() { err = errors.Join(err, d.Stop()) }()
	client := service.NewClient(d.BaseURL())
	const rounds = 10
	n := rounds * len(probe)
	each := func(fn func(c cell) error) func() error {
		return func() error {
			for r := 0; r < rounds; r++ {
				for _, c := range probe {
					if err := fn(c); err != nil {
						return err
					}
				}
			}
			return nil
		}
	}
	hitCheck := func(st service.JobStatus, err error) error {
		if err == nil && !st.Cached {
			err = fmt.Errorf("probe submit of %s was not a hit", st.Key)
		}
		return err
	}
	submit := each(func(c cell) error { return hitCheck(d.Queue().Submit(ctx, c.spec)) })
	httpHit := each(func(c cell) error { return hitCheck(client.Submit(ctx, c.spec, true)) })
	qd, err := timeEach(n, submit)
	if err != nil {
		return err
	}
	hd, err := timeEach(n, httpHit)
	if err != nil {
		return err
	}
	m.set("service.queue_submit_us", us(qd))
	m.set("service.client_hit_us", us(hd))
	m.set("service.http_overhead_us", us(hd)-us(qd))
	allocs, err := allocsEach(n, httpHit)
	if err != nil {
		return err
	}
	m.set("service.hit_allocs", allocs)

	// Remote tier: key-only reads never write back, so every Get goes
	// remote; each Fetch writes back, so each round gets a fresh local
	// tier.
	newTier := func() *service.RemoteBackend {
		return service.NewRemoteBackend(service.NewMemBackend(), service.NewClient(d.BaseURL()))
	}
	rb := newTier()
	defer rb.Close()
	gd, err := timeEach(n, each(func(c cell) error {
		_, ok, err := rb.Get(ctx, c.key)
		if err == nil && !ok {
			err = fmt.Errorf("remote get of %s missed", c.key)
		}
		return err
	}))
	if err != nil {
		return err
	}
	m.set("service.remote_get_us", us(gd))
	fd, err := timeEach(len(probe), func() error {
		tier := newTier()
		defer tier.Close()
		for _, c := range probe {
			_, ok, err := tier.Fetch(ctx, c.spec, c.key)
			if err == nil && !ok {
				err = fmt.Errorf("remote fetch of %s missed", c.key)
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("service.remote_fetch_ms", us(fd)/1e3)
	return nil
}
