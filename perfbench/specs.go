package main

import (
	"fmt"
	"math/rand"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/units"
)

// The seeded spec mix. Every generated spec is a valid, never-repeating
// scenario of one of the built-in kinds; the stream index and the seed
// fix it completely, so the daemon only ever sees generated inputs and
// the same seed gives the same inputs.

// mixKinds are the kinds of the mix: every built-in kind, the batch both
// with and without voting, and one faultsweep cell.
var mixKinds = []string{
	"single", "batch", "batch_voting", "fleet", "fleetcoord", "multicore", "faultsweep",
}

// horizons is the simulated horizon per mix kind for one profile.
type horizons map[string]units.Seconds

// coldHorizons are the sweep-cold horizons: each kind costs about 5-9 ms
// of single-threaded engine time on a 2-core x86 host, so no kind takes
// more than a fifth of the engine time and the engine dominates a miss.
var coldHorizons = horizons{
	"single": 18000, "batch": 4000, "batch_voting": 2400, "fleet": 2000,
	"fleetcoord": 800, "multicore": 300, "faultsweep": 14400,
}

// fixtureHorizons are the store-fixture horizons: short, because a hit
// costs the same whatever the horizon (cells hold metrics, not series).
var fixtureHorizons = horizons{
	"single": 300, "batch": 120, "batch_voting": 120, "fleet": 120,
	"fleetcoord": 60, "multicore": 60, "faultsweep": 300,
}

// freshHorizons are the resume-tiered fresh specs: short runs, so the
// engine share stays small beside the storage and remote work.
var freshHorizons = horizons{
	"single": 300, "batch": 120, "batch_voting": 60, "fleet": 60,
	"fleetcoord": 30, "multicore": 30, "faultsweep": 300,
}

var (
	policies  = []string{"full", "atref", "rcoord", "ecoord", "none", "adaptive-pid"}
	faultKind = []string{scenario.FaultStuck, scenario.FaultDropout, scenario.FaultPlacement,
		scenario.FaultCalibration, scenario.FaultSlew}
	severities = []float64{0.25, 0.5, 1}
)

// jobWorkload draws one job's demand generator.
func jobWorkload(r *rand.Rand, seed int64) scenario.FactoryRef {
	switch r.Intn(4) {
	case 0:
		return scenario.FactoryRef{Name: "noisy-square", Seed: seed,
			Params: scenario.Params{"period": float64(300 * (1 + r.Intn(3))), "sigma": 0.04}}
	case 1:
		return scenario.FactoryRef{Name: "markov", Seed: seed,
			Params: scenario.Params{"idle_u": 0.15, "busy_u": 0.85, "dwell": 45}}
	case 2:
		return scenario.FactoryRef{Name: "spiky-batch", Seed: seed,
			Params: scenario.Params{"u": 0.65, "count": 6}}
	default:
		return scenario.FactoryRef{Name: "prbs", Seed: seed,
			Params: scenario.Params{"low": 0.2, "high": 0.8, "dwell": 90}}
	}
}

// jobs draws n independent full-platform jobs.
func jobs(r *rand.Rand, root int64, n int) []scenario.JobSpec {
	out := make([]scenario.JobSpec, n)
	for i := range out {
		out[i] = scenario.JobSpec{
			Name:      fmt.Sprintf("j%d", i),
			Workload:  jobWorkload(r, stats.SubSeed(root, int64(i))),
			Policy:    scenario.FactoryRef{Name: policies[r.Intn(len(policies))]},
			WarmStart: &sim.WarmPoint{Util: 0.2, Fan: 1500},
		}
	}
	return out
}

// mixSpec builds the unique spec number idx of one stream. kind is a
// mixKinds entry; the name carries the stream label and index, so two
// streams never collide and no index repeats within a stream.
func mixSpec(stream string, seed int64, idx int, kind string, h horizons) (scenario.Spec, error) {
	root := stats.SubSeed(seed, int64(idx))
	r := rand.New(rand.NewSource(root))
	s := scenario.Spec{
		Name:     fmt.Sprintf("%s/%d/%s", stream, idx, kind),
		Duration: h[kind],
	}
	switch kind {
	case "single":
		s.Kind = scenario.KindSingle
		s.Jobs = jobs(r, root, 1)
	case "batch":
		s.Kind = scenario.KindBatch
		s.Jobs = jobs(r, root, 8)
	case "batch_voting":
		s.Kind = scenario.KindBatch
		s.Jobs = jobs(r, root, 8)
		s.Voting = &scenario.VotingSpec{Sensors: 3}
	case "fleet":
		s.Kind = scenario.KindFleet
		s.Fleet = &scenario.FleetSpec{Size: 8, Seed: root, Recirc: 0.01}
	case "fleetcoord":
		s.Kind = scenario.KindFleetCoord
		s.Fleet = &scenario.FleetSpec{Size: 8, Seed: root, Recirc: 0.03}
		s.Params = scenario.Params{"power_budget_w": 1100}
	case "multicore":
		s.Kind = scenario.KindMulticore
		s.Multicore = &scenario.MulticoreSpec{
			NCore: 4,
			Workload: scenario.FactoryRef{Name: "noisy-square", Seed: root,
				Params: scenario.Params{"period": 600, "sigma": 0.04}},
			Coordinate: r.Intn(2) == 0,
		}
	case "faultsweep":
		target := scenario.FaultTarget{Name: s.Name, Spec: scenario.Spec{
			Kind: scenario.KindSingle, Duration: s.Duration, Jobs: jobs(r, root, 1),
		}}
		cell, err := scenario.FaultCellSpec(target, faultKind[r.Intn(len(faultKind))],
			severities[r.Intn(len(severities))], root, nil)
		if err != nil {
			return scenario.Spec{}, err
		}
		s = cell
	default:
		return scenario.Spec{}, fmt.Errorf("unknown mix kind %q", kind)
	}
	return s, s.Validate()
}

// blockOrder returns the kinds of mix block b in a seeded shuffled
// order: every block holds each kind once, so the kind proportions of
// any prefix are exact to within one block.
func blockOrder(seed int64, b int) []string {
	r := rand.New(rand.NewSource(stats.SubSeed(seed, int64(1_000_000+b))))
	order := append([]string(nil), mixKinds...)
	r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

// mixKindAt is the kind of stream index idx.
func mixKindAt(seed int64, idx int) string {
	return blockOrder(seed, idx/len(mixKinds))[idx%len(mixKinds)]
}
