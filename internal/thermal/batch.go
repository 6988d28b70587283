package thermal

import (
	"fmt"

	"repro/internal/units"
)

// BatchNetwork integrates B structurally identical RC networks in lockstep:
// one shared topology (capacitances, node-to-node conductances, ambient
// couplings) driving B independent state columns that differ only in node
// temperatures, injected loads and ambient temperature. Monte Carlo sweeps
// and fleet racks simulate many same-topology servers; stepping them as one
// batch turns N scattered integrations into contiguous streams.
//
// State is laid out structure-of-arrays, [node][server]: slot i*B+s holds
// node i of server s, so the RK4 inner loops walk the batch dimension with
// unit stride and the CSR neighbor gathers of all servers share one cache
// line per node row. The substep count is a function of the shared
// topology alone, so it is computed once for the whole batch and cached
// exactly like Network's.
//
// Every server column performs bit-for-bit the same floating-point
// operations, in the same order, as a standalone Network with the same
// topology, loads and ambient — the batch tests assert bit-identity, and
// Step is allocation-free after the first call.
type BatchNetwork struct {
	n int // nodes per network
	b int // batch size (servers)

	caps    []units.JPerK
	ambCond []float64   // conductance to ambient per node (1/R), 0 = none
	cond    [][]float64 // symmetric node-to-node conductances (source of truth)

	temps   []float64 // [node][server] SoA, len n*b
	loads   []float64 // [node][server] SoA, len n*b
	ambient []float64 // per server, len b

	// RK4 scratch, len n*b.
	k1, k2, k3, k4 []float64
	tmp            []float64
	x              []float64

	// Compiled hot-path state, rebuilt lazily (same discipline as Network).
	invCaps  []float64
	nbrStart []int
	nbrIdx   []int
	nbrG     []float64
	rowG     []float64
	tauMin   float64
	csrDirty bool
	tauDirty bool
}

// NewBatchNetwork creates a batch of b isolated n-node networks, every node
// of every server at the given ambient temperature with unit capacitance
// and no couplings.
func NewBatchNetwork(n, b int, ambient units.Celsius) (*BatchNetwork, error) {
	if n < 1 {
		return nil, fmt.Errorf("thermal: batch network size %d < 1", n)
	}
	if b < 1 {
		return nil, fmt.Errorf("thermal: batch of %d servers < 1", b)
	}
	bn := &BatchNetwork{
		n:        n,
		b:        b,
		caps:     make([]units.JPerK, n),
		ambCond:  make([]float64, n),
		cond:     make([][]float64, n),
		temps:    make([]float64, n*b),
		loads:    make([]float64, n*b),
		ambient:  make([]float64, b),
		k1:       make([]float64, n*b),
		k2:       make([]float64, n*b),
		k3:       make([]float64, n*b),
		k4:       make([]float64, n*b),
		tmp:      make([]float64, n*b),
		x:        make([]float64, n*b),
		invCaps:  make([]float64, n),
		nbrStart: make([]int, n+1),
		rowG:     make([]float64, n),
		csrDirty: true,
		tauDirty: true,
	}
	for i := 0; i < n; i++ {
		bn.caps[i] = 1
		bn.invCaps[i] = 1
		bn.cond[i] = make([]float64, n)
	}
	for s := range bn.ambient {
		bn.ambient[s] = float64(ambient)
	}
	for i := range bn.temps {
		bn.temps[i] = float64(ambient)
	}
	return bn, nil
}

// Size returns the number of nodes per network.
func (bn *BatchNetwork) Size() int { return bn.n }

// SetCapacitance sets node i's thermal capacitance for every server.
func (bn *BatchNetwork) SetCapacitance(i int, c units.JPerK) error {
	if c <= 0 {
		return fmt.Errorf("thermal: non-positive capacitance %v for node %d", c, i)
	}
	bn.caps[i] = c
	bn.invCaps[i] = 1 / float64(c)
	bn.tauDirty = true
	return nil
}

// Connect couples nodes i and j with thermal resistance r in every server.
func (bn *BatchNetwork) Connect(i, j int, r units.KPerW) error {
	if i == j {
		return fmt.Errorf("thermal: self-coupling of node %d", i)
	}
	if r <= 0 {
		return fmt.Errorf("thermal: non-positive resistance %v between %d and %d", r, i, j)
	}
	g := 1 / float64(r)
	bn.cond[i][j] = g
	bn.cond[j][i] = g
	bn.csrDirty = true
	bn.tauDirty = true
	return nil
}

// ConnectAmbient couples node i to ambient with resistance r in every
// server. Like Network, a repeated call with an unchanged resistance only
// refreshes the (cheap) time-constant cache when the value actually moves.
func (bn *BatchNetwork) ConnectAmbient(i int, r units.KPerW) error {
	if r <= 0 {
		return fmt.Errorf("thermal: non-positive ambient resistance %v for node %d", r, i)
	}
	g := 1 / float64(r)
	if g != bn.ambCond[i] {
		bn.ambCond[i] = g
		bn.tauDirty = true
	}
	return nil
}

// SetLoad sets the heat injected into node i of server s.
func (bn *BatchNetwork) SetLoad(i, s int, p units.Watt) { bn.loads[i*bn.b+s] = float64(p) }

// Temperature returns the temperature of node i of server s.
func (bn *BatchNetwork) Temperature(i, s int) units.Celsius {
	return units.Celsius(bn.temps[i*bn.b+s])
}

// SetTemperature forces the temperature of node i of server s.
func (bn *BatchNetwork) SetTemperature(i, s int, t units.Celsius) {
	bn.temps[i*bn.b+s] = float64(t)
}

// SetAmbient changes server s's ambient temperature (fleet inlet fields
// give every server its own).
func (bn *BatchNetwork) SetAmbient(s int, t units.Celsius) { bn.ambient[s] = float64(t) }

// compile rebuilds the CSR neighbor list and per-row conductance sums from
// the dense coupling matrix, exactly as Network does.
func (bn *BatchNetwork) compile() {
	edges := 0
	for i := 0; i < bn.n; i++ {
		for j := 0; j < bn.n; j++ {
			if bn.cond[i][j] != 0 {
				edges++
			}
		}
	}
	if cap(bn.nbrIdx) < edges {
		bn.nbrIdx = make([]int, edges)
		bn.nbrG = make([]float64, edges)
	}
	bn.nbrIdx = bn.nbrIdx[:edges]
	bn.nbrG = bn.nbrG[:edges]
	k := 0
	for i := 0; i < bn.n; i++ {
		bn.nbrStart[i] = k
		sum := 0.0
		for j := 0; j < bn.n; j++ {
			if g := bn.cond[i][j]; g != 0 {
				bn.nbrIdx[k] = j
				bn.nbrG[k] = g
				sum += g
				k++
			}
		}
		bn.rowG[i] = sum
	}
	bn.nbrStart[bn.n] = k
	bn.csrDirty = false
}

// refreshTau recomputes the cached smallest time constant — shared by the
// whole batch, since the topology is.
func (bn *BatchNetwork) refreshTau() {
	minTau := 1e18
	for i := 0; i < bn.n; i++ {
		g := bn.rowG[i] + bn.ambCond[i]
		if g == 0 {
			continue
		}
		tau := float64(bn.caps[i]) / g
		if tau < minTau {
			minTau = tau
		}
	}
	if minTau == 1e18 {
		minTau = 1
	}
	bn.tauMin = minTau
	bn.tauDirty = false
}

// derivatives fills out with dT/dt for the batched state in temps. The
// inner loops stream the batch dimension contiguously; each server column
// accumulates terms in the same order as Network.derivatives.
func (bn *BatchNetwork) derivatives(temps, out []float64) {
	b := bn.b
	for i := 0; i < bn.n; i++ {
		row := temps[i*b : i*b+b]
		orow := out[i*b : i*b+b]
		lrow := bn.loads[i*b : i*b+b]
		copy(orow, lrow)
		for k := bn.nbrStart[i]; k < bn.nbrStart[i+1]; k++ {
			nrow := temps[bn.nbrIdx[k]*b : bn.nbrIdx[k]*b+b]
			g := bn.nbrG[k]
			for s := 0; s < b; s++ {
				orow[s] += (nrow[s] - row[s]) * g
			}
		}
		if g := bn.ambCond[i]; g != 0 {
			for s := 0; s < b; s++ {
				orow[s] += (bn.ambient[s] - row[s]) * g
			}
		}
		ic := bn.invCaps[i]
		for s := 0; s < b; s++ {
			orow[s] *= ic
		}
	}
}

// Step advances every server by dt using RK4 with the shared cached substep
// count. It is allocation-free after the first call and errors on
// non-positive dt.
func (bn *BatchNetwork) Step(dt units.Seconds) error {
	if dt <= 0 {
		return fmt.Errorf("thermal: non-positive step %v", dt)
	}
	if bn.csrDirty {
		bn.compile()
	}
	if bn.tauDirty {
		bn.refreshTau()
	}
	sub := 1
	if h := float64(dt); h > bn.tauMin/4 {
		sub = int(h/(bn.tauMin/4)) + 1
	}
	h := float64(dt) / float64(sub)
	x := bn.x
	copy(x, bn.temps)
	tmp := bn.tmp
	for s := 0; s < sub; s++ {
		bn.derivatives(x, bn.k1)
		for i := range tmp {
			tmp[i] = x[i] + h/2*bn.k1[i]
		}
		bn.derivatives(tmp, bn.k2)
		for i := range tmp {
			tmp[i] = x[i] + h/2*bn.k2[i]
		}
		bn.derivatives(tmp, bn.k3)
		for i := range tmp {
			tmp[i] = x[i] + h*bn.k3[i]
		}
		bn.derivatives(tmp, bn.k4)
		for i := range x {
			x[i] += h / 6 * (bn.k1[i] + 2*bn.k2[i] + 2*bn.k3[i] + bn.k4[i])
		}
	}
	copy(bn.temps, x)
	return nil
}
