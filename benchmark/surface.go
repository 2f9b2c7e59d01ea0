package main

// surface.go is the benchmark's whole compile-time surface: the only file
// that imports the program under test. Everything else in this directory
// goes through the aliases and wrappers below, so the list of names a
// refactor must keep (or change in a benchmark PR first) is this file's
// import-qualified identifiers and nothing more. README.md repeats the list.
//
// Served workloads use, besides this file, only the mwserved binary's
// -addr/-workers flags and its HTTP API (serve.go).

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"

	"mw/internal/atom"
	"mw/internal/cells"
	"mw/internal/core"
	"mw/internal/forces"
	"mw/internal/mml"
	"mw/internal/pool"
	"mw/internal/vec"
	"mw/internal/workload"
)

type (
	system       = atom.System
	simulation   = core.Simulation
	engineConfig = core.Config
	vec3         = vec.Vec3
)

// Phase indices of simulation.PhaseWall / WorkerBusy, in step order, with
// the names the per-layer metrics use.
var enginePhases = [...]struct {
	ph   core.Phase
	name string
}{
	{core.PhasePredictor, "predictor"},
	{core.PhaseNeighborCheck, "neighbor_check"},
	{core.PhaseForce, "force"},
	{core.PhaseReduce, "reduce"},
	{core.PhaseCorrector, "corrector"},
}

const forcePhase = core.PhaseForce

// haveSIMD reports whether the packed AVX2 cluster kernel can run here.
var haveSIMD = forces.HaveClusterSIMD

// generate builds the named input system with velocities re-drawn from seed
// at the generator's own temperature. The program under test only ever sees
// what this returns (directly, or as the MML document made from it).
func generate(input string, seed int64) (*system, engineConfig) {
	rng := rand.New(rand.NewSource(seed))
	var b *workload.Benchmark
	switch input {
	case "al1000":
		b = workload.Al1000()
		// 10 K on the 999 Al atoms; the projectile keeps its velocity.
		last := b.Sys.N() - 1
		projectile := b.Sys.Vel[last]
		b.Sys.Thermalize(10, rng)
		b.Sys.Vel[last] = projectile
	case "salt":
		b = workload.Salt()
		b.Sys.Thermalize(300, rng)
	case "nanocar":
		b = workload.Nanocar()
		b.Sys.Thermalize(200, rng)
	case "ljliquid8k":
		b = workload.LJGas(20, 40, true)
		b.Sys.Thermalize(40, rng)
	case "ljliquid-smoke":
		// -smoke only: the same generator at 1 000 atoms.
		b = workload.LJGas(10, 40, true)
		b.Sys.Thermalize(40, rng)
	default:
		panic("benchmark: unknown input " + input)
	}
	return b.Sys, b.Cfg
}

// fastConfig is the one place the engine workloads' configuration is set:
// the opt-in fast path of BENCH_3's step/*/cluster rows.
func fastConfig(base engineConfig, threads int) engineConfig {
	base.Reorder = true
	base.Cluster = true
	base.Partition = core.PartitionGuided
	base.Threads = threads
	return base
}

// defaultConfig is what mwserved runs every tenant with.
func defaultConfig(base engineConfig) engineConfig {
	base.Threads = 1
	return base
}

func newSimulation(sys *system, cfg engineConfig) (*simulation, error) {
	return core.New(sys, cfg)
}

// positionsInOriginalOrder returns a copy of the positions indexed by
// construction-time atom ID, whatever the reorder pass has done since.
func positionsInOriginalOrder(sim *simulation) []vec3 {
	return append([]vec3(nil), sim.SystemInOriginalOrder().Pos...)
}

// modelDocument serialises a system as the MML document a tenant uploads.
func modelDocument(name string, sys *system, cfg engineConfig) []byte {
	var buf bytes.Buffer
	if err := mml.Save(&buf, mml.FromSystem(name, sys, cfg)); err != nil {
		panic("benchmark: encoding a generated model failed: " + err.Error())
	}
	return buf.Bytes()
}

// loadDocument is the in-process twin of an upload: parse and materialise.
func loadDocument(r io.Reader) (*system, engineConfig, error) {
	m, err := mml.Load(r)
	if err != nil {
		return nil, engineConfig{}, err
	}
	return m.System()
}

// layerProbe holds one system's state for the layer replay: the stages of a
// force phase, each callable on its own through the owning layer's public
// function.
type layerProbe struct {
	sys     *system
	rng     float64 // cutoff + skin
	grid    *cells.Grid
	ranks   []int32 // cell → Morton rank, cached like the engine does
	lj      *forces.LJ
	coul    forces.Coulomb
	charged []int32
	ref     []vec3
	f       []vec3

	rl  cells.RangeList
	cl  cells.ClusterList
	cc  cells.ClusterCoords
	scr forces.ClusterScratch

	ro           atom.Reorderer
	keys, order  []int32
	counts       []int32
	hasExclOrFix bool
	bondedTerms  int
}

func newLayerProbe(sys *system, cfg engineConfig) *layerProbe {
	p := &layerProbe{
		sys:     sys,
		rng:     cfg.LJCutoff + cfg.Skin,
		lj:      forces.NewLJ(sys.Elements, cfg.LJCutoff),
		coul:    forces.Coulomb{Softening: 0.05}, // the engine default
		charged: sys.ChargedIndices(),
		ref:     append([]vec3(nil), sys.Pos...),
		f:       make([]vec3, sys.N()),
		keys:    make([]int32, sys.N()),
		order:   make([]int32, sys.N()),
	}
	p.grid = cells.NewGrid(sys.Box, p.rng)
	p.ranks = p.grid.MortonRanks()
	p.counts = make([]int32, p.grid.NumCells()+1)
	p.bondedTerms = len(sys.Bonds) + len(sys.Angles) + len(sys.Torsions) + len(sys.Morses)
	p.hasExclOrFix = sys.Excl.Len() > 0
	for _, fx := range sys.Fixed {
		p.hasExclOrFix = p.hasExclOrFix || fx
	}
	return p
}

// reorder is the engine's rebuild-time Morton pass: cell ranks, a stable
// counting sort, and the gather of every per-atom array.
func (p *layerProbe) reorder() {
	s, n := p.sys, p.sys.N()
	for i := range p.counts {
		p.counts[i] = 0
	}
	for i := 0; i < n; i++ {
		k := p.ranks[p.grid.CellIndexOf(s.Pos[i])]
		p.keys[i] = k
		p.counts[k+1]++
	}
	for r := 1; r < len(p.counts); r++ {
		p.counts[r] += p.counts[r-1]
	}
	for i := 0; i < n; i++ {
		k := p.keys[i]
		p.order[p.counts[k]] = int32(i)
		p.counts[k]++
	}
	if err := p.ro.Apply(s, p.order); err != nil {
		panic("benchmark: reorder probe built an invalid permutation: " + err.Error())
	}
}

func (p *layerProbe) assign()       { p.grid.Assign(p.sys) }
func (p *layerProbe) buildRange()   { p.grid.BuildRange(p.sys, p.rng, 0, p.sys.N(), &p.rl) }
func (p *layerProbe) buildCluster() { p.grid.BuildClusterRange(p.sys, p.rng, 0, p.sys.N(), &p.cl) }
func (p *layerProbe) pack()         { p.cc.Pack(p.sys) }
func (p *layerProbe) maxDisp() float64 {
	return cells.MaxDisplacement2(p.sys, p.ref, 0, p.sys.N())
}
func (p *layerProbe) ljRef() float64  { return p.lj.AccumulateRangeList(p.sys, &p.rl, p.f) }
func (p *layerProbe) ljFast() float64 { return p.lj.AccumulateRangeListFast(p.sys, &p.rl, p.f) }
func (p *layerProbe) ljSIMD() float64 {
	return p.lj.AccumulateClusterListSIMD(p.sys, &p.cc, &p.cl, &p.scr, p.f)
}
func (p *layerProbe) coulomb() float64 { return p.coul.Accumulate(p.sys, p.charged, p.f) }
func (p *layerProbe) bonded() float64  { return forces.AccumulateBonded(p.sys, p.f) }

func (p *layerProbe) halfPairs() int      { return p.rl.Len() }
func (p *layerProbe) clusterEntries() int { return len(p.cl.Entries) }
func (p *layerProbe) maskedPairs() int    { return p.cl.Pairs() }

// fastKernelApplies mirrors the engine's own gate on the single-reciprocal
// half-list kernel: no exclusions and no fixed atoms.
func (p *layerProbe) fastKernelApplies() bool { return !p.hasExclOrFix }

// simdKernelApplies mirrors the engine's gate on the packed kernel.
func (p *layerProbe) simdKernelApplies() bool { return haveSIMD && !p.sys.Box.Periodic }

// phaseDispatch runs one empty phase — workers no-op tasks, one barrier —
// on a fixed pool, the cost the engine pays five times a step at Threads>1.
type dispatchProbe struct {
	ex    *pool.FixedPool
	tasks []pool.Task
}

func newDispatchProbe(workers int) *dispatchProbe {
	d := &dispatchProbe{ex: pool.NewFixedPool(workers), tasks: make([]pool.Task, workers)}
	for i := range d.tasks {
		d.tasks[i] = func() {}
	}
	return d
}
func (d *dispatchProbe) run()   { pool.RunPhase(d.ex, d.tasks) }
func (d *dispatchProbe) close() { d.ex.Shutdown() }

// describeSystem is a one-line summary for the human-readable output.
func describeSystem(sys *system) string {
	return fmt.Sprintf("%d atoms, %d charged, %d bonded terms, periodic=%v",
		sys.N(), len(sys.ChargedIndices()),
		len(sys.Bonds)+len(sys.Angles)+len(sys.Torsions)+len(sys.Morses), sys.Box.Periodic)
}

// maxDeviation is the largest per-coordinate distance between two position
// arrays, through the minimum image where the box is periodic (so an atom
// that wrapped one step earlier in one run does not read as a box length).
func maxDeviation(sys *system, a, b []vec3) float64 {
	worst := 0.0
	axis := func(x, y, l float64) {
		d := math.Abs(x - y)
		if sys.Box.Periodic && l-d < d {
			d = l - d
		}
		if !(d <= worst) { // also catches NaN
			worst = d
		}
	}
	for i := range a {
		axis(a[i].X, b[i].X, sys.Box.L.X)
		axis(a[i].Y, b[i].Y, sys.Box.L.Y)
		axis(a[i].Z, b[i].Z, sys.Box.L.Z)
	}
	return worst
}
