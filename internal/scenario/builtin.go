package scenario

import (
	"fmt"

	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/workload"
)

// Built-in factory registrations: every workload and policy the
// repository's experiment surfaces use, under stable names. Each factory
// reproduces its pre-scenario construction exactly, so specs that replace
// the old ad-hoc entry points stay bit-identical.

func init() {
	registerBuiltinWorkloads()
	registerBuiltinPolicies()
}

func registerBuiltinWorkloads() {
	RegisterWorkload("constant", "u", func(cfg sim.Config, seed int64, p Params) (workload.Generator, error) {
		return workload.Constant{U: units.Utilization(p.Get("u", 0.5))}, nil
	})
	RegisterWorkload("square", "period", func(cfg sim.Config, seed int64, p Params) (workload.Generator, error) {
		return workload.PaperSquare(units.Seconds(p.Get("period", 600))), nil
	})
	RegisterWorkload("step", "before, after, at", func(cfg sim.Config, seed int64, p Params) (workload.Generator, error) {
		return workload.Step{
			Before: units.Utilization(p.Get("before", 0.1)),
			After:  units.Utilization(p.Get("after", 0.7)),
			Time:   units.Seconds(p.Get("at", 100)),
		}, nil
	})
	RegisterWorkload("noisy-square", "period, sigma; seeded", func(cfg sim.Config, seed int64, p Params) (workload.Generator, error) {
		return workload.NewNoisy(
			workload.PaperSquare(units.Seconds(p.Get("period", 600))),
			p.Get("sigma", 0.04), cfg.Tick, seed)
	})
	RegisterWorkload("prbs", "low, high, dwell; seeded", func(cfg sim.Config, seed int64, p Params) (workload.Generator, error) {
		return workload.PRBS{
			Low:   units.Utilization(p.Get("low", 0.1)),
			High:  units.Utilization(p.Get("high", 0.7)),
			Dwell: units.Seconds(p.Get("dwell", 60)),
			Seed:  seed,
		}, nil
	})
	RegisterWorkload("markov", "idle_u, busy_u, dwell, p_idle_busy, p_busy_idle; seeded", func(cfg sim.Config, seed int64, p Params) (workload.Generator, error) {
		return workload.Markov{
			IdleU:       units.Utilization(p.Get("idle_u", 0.1)),
			BusyU:       units.Utilization(p.Get("busy_u", 0.8)),
			Dwell:       units.Seconds(p.Get("dwell", 30)),
			PIdleToBusy: p.Get("p_idle_busy", 0.2),
			PBusyToIdle: p.Get("p_busy_idle", 0.3),
			Seed:        seed,
		}, nil
	})
	// The batch-node archetype: noisy constant base with periodic
	// full-load spikes (the fleet layer's "batch" role).
	RegisterWorkload("spiky-batch", "u, sigma, first, every, len, level, count; seeded", func(cfg sim.Config, seed int64, p Params) (workload.Generator, error) {
		noisy, err := workload.NewNoisy(
			workload.Constant{U: units.Utilization(p.Get("u", 0.65))},
			p.Get("sigma", 0.05), cfg.Tick, seed)
		if err != nil {
			return nil, err
		}
		return workload.NewSpiky(noisy, workload.PeriodicSpikes(
			units.Seconds(p.Get("first", 200)),
			units.Seconds(p.Get("every", 500)),
			units.Seconds(p.Get("len", 30)),
			units.Utilization(p.Get("level", 1.0)),
			int(p.Get("count", 6))))
	})
	// A noisy square wave with two full-load bursts per period, sized
	// from the horizon.
	RegisterWorkload("spiky-square", "period, sigma, duration; seeded", func(cfg sim.Config, seed int64, p Params) (workload.Generator, error) {
		period := p.Get("period", 600)
		duration := p.Get("duration", 3600)
		noisy, err := workload.NewNoisy(
			workload.PaperSquare(units.Seconds(period)), p.Get("sigma", 0.04), cfg.Tick, seed)
		if err != nil {
			return nil, err
		}
		n := int(duration/period) + 1
		spikes := workload.PeriodicSpikes(
			units.Seconds(period/4), units.Seconds(period/2), 25, 1.0, 2*n)
		return workload.NewSpiky(noisy, spikes)
	})
	// The Table III evaluation trace: noisy square wave plus four abrupt
	// full-load bursts per period at fixed phase fractions (two out of
	// each phase), covering any period/duration combination.
	RegisterWorkload("table3", "period, sigma, spike_len, duration; seeded", func(cfg sim.Config, seed int64, p Params) (workload.Generator, error) {
		period := units.Seconds(p.Get("period", 600))
		base := workload.PaperSquare(period)
		noisy, err := workload.NewNoisy(base, p.Get("sigma", 0.04), cfg.Tick, seed)
		if err != nil {
			return nil, err
		}
		spikeLen := units.Seconds(p.Get("spike_len", 0))
		if spikeLen <= 0 {
			return noisy, nil
		}
		duration := units.Seconds(p.Get("duration", 7200))
		var spikes []workload.Spike
		periods := int(float64(duration)/float64(period)) + 1
		offsets := []float64{0.15, 0.30, 0.65, 0.80}
		for q := 0; q < periods; q++ {
			start := units.Seconds(float64(q)) * period
			for _, frac := range offsets {
				spikes = append(spikes, workload.Spike{
					Start:    start + units.Seconds(frac*float64(period)),
					Duration: spikeLen,
					Level:    1.0,
				})
			}
		}
		return workload.NewSpiky(noisy, spikes)
	})
}

func registerBuiltinPolicies() {
	// The five Table III solutions, under their short names. "rcoord"
	// takes the set-point as a parameter (Table III uses 75 °C).
	RegisterPolicy("none", "w/o coordination baseline", func(cfg sim.Config, seed int64, p Params) (sim.Policy, error) {
		return core.NewUncoordinated(cfg)
	})
	RegisterPolicy("ecoord", "energy-aware coordination of [6]", func(cfg sim.Config, seed int64, p Params) (sim.Policy, error) {
		return core.NewECoordPolicy(cfg)
	})
	RegisterPolicy("rcoord", "rule-based coordination; ref_temp", func(cfg sim.Config, seed int64, p Params) (sim.Policy, error) {
		return core.NewRuleCoord(cfg, units.Celsius(p.Get("ref_temp", 75)))
	})
	RegisterPolicy("atref", "R-coord + adaptive set-point", func(cfg sim.Config, seed int64, p Params) (sim.Policy, error) {
		return core.NewRuleCoordAdaptiveRef(cfg)
	})
	RegisterPolicy("full", "complete proposal (R-coord+A-Tref+SSfan)", func(cfg sim.Config, seed int64, p Params) (sim.Policy, error) {
		return core.NewFullStack(cfg)
	})
	RegisterPolicy("hold", "constant fan speed; fan", func(cfg sim.Config, seed int64, p Params) (sim.Policy, error) {
		return sim.HoldPolicy{Fan: units.RPM(p.Get("fan", 4000))}, nil
	})

	// The stability-experiment fan-only policies (Figs. 3 and 4): a bare
	// fan controller with the cap held open.
	RegisterPolicy("pid-fixed", "fixed-gain PID fan loop; region (0|1), ref_temp", func(cfg sim.Config, seed int64, p Params) (sim.Policy, error) {
		regions := core.DefaultRegions()
		region := int(p.Get("region", 0))
		if region < 0 || region >= len(regions) {
			return nil, fmt.Errorf("region %d outside gain schedule (%d regions)", region, len(regions))
		}
		r := regions[region]
		pid, err := control.NewPID(control.PIDConfig{
			Gains: r.Gains, RefSpeed: r.RefSpeed,
			RefTemp:  units.Celsius(p.Get("ref_temp", 68)),
			Limits:   control.Limits{Min: cfg.FanMinSpeed, Max: cfg.FanMaxSpeed},
			SlewFrac: 0.6, SlewFloor: 400,
		})
		if err != nil {
			return nil, err
		}
		fan, err := control.NewQuantGuard(pid, 1)
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("pid@%.0frpm", float64(r.RefSpeed))
		return core.NewFanOnlyPolicy(name, fan, core.DefaultFanInterval, cfg)
	})
	RegisterPolicy("adaptive-pid", "gain-scheduled PID fan loop; ref_temp", func(cfg sim.Config, seed int64, p Params) (sim.Policy, error) {
		a, err := control.NewAdaptivePID(core.DefaultRegions(),
			units.Celsius(p.Get("ref_temp", 68)),
			control.Limits{Min: cfg.FanMinSpeed, Max: cfg.FanMaxSpeed})
		if err != nil {
			return nil, err
		}
		a.SetSlewFrac(0.6, 400)
		fan, err := control.NewQuantGuard(a, 1)
		if err != nil {
			return nil, err
		}
		return core.NewFanOnlyPolicy("adaptive-pid", fan, core.DefaultFanInterval, cfg)
	})
	RegisterPolicy("deadzone", "band fan controller; band_lo, band_hi, step", func(cfg sim.Config, seed int64, p Params) (sim.Policy, error) {
		dz, err := control.NewDeadzone(
			units.Celsius(p.Get("band_lo", 74.4)),
			units.Celsius(p.Get("band_hi", 74.6)),
			units.RPM(p.Get("step", 500)),
			control.Limits{Min: cfg.FanMinSpeed, Max: cfg.FanMaxSpeed})
		if err != nil {
			return nil, err
		}
		return core.NewFanOnlyPolicy("deadzone", dz, core.DefaultFanInterval, cfg)
	})
}
