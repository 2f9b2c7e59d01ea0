// Package mw_test is the repository-level benchmark harness: one benchmark
// per table and figure of the paper (regenerating each via
// internal/experiments), plus engine benchmarks for the three Table I
// workloads and the design-choice ablations called out in DESIGN.md.
//
// Run everything with:
//
//	go test -bench=. -benchmem
package mw_test

import (
	"testing"

	"mw/internal/atom"
	"mw/internal/cells"
	"mw/internal/core"
	"mw/internal/ewald"
	"mw/internal/experiments"
	"mw/internal/vec"
	"mw/internal/workload"
)

// --- Tables and figures -----------------------------------------------------

// BenchmarkTable1Workloads regenerates Table I's three benchmark systems.
func BenchmarkTable1Workloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, bench := range workload.All() {
			if bench.Sys.N() == 0 {
				b.Fatal("empty system")
			}
		}
	}
}

// BenchmarkFig1Speedup runs the Fig 1 machine-model speedup sweep (reduced
// budget; the full run is `mwbench fig1`).
func BenchmarkFig1Speedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig1(60_000_000)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r.Speedup["salt"][3], "salt-speedup-4c")
			b.ReportMetric(r.Speedup["Al-1000"][3], "al1000-speedup-4c")
		}
	}
}

// BenchmarkFig2Affinity runs the Fig 2 scheduler trace.
func BenchmarkFig2Affinity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig2()
		if i == 0 {
			b.ReportMetric(float64(r.Migrations), "migrations")
		}
	}
}

// BenchmarkTable3Pinning runs the Table III pinning-topology sweep (reduced
// horizon; the full run is `mwbench table3`).
func BenchmarkTable3Pinning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table3(3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObserverEffect runs the §IV-A observer-effect experiment.
func BenchmarkObserverEffect(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Observer(4000, 100, 3)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(
				float64(r.ModelMonitored["synchronized"])/float64(r.ModelBaseline),
				"sync-slowdown")
		}
	}
}

// BenchmarkSamplingGranularity runs the §IV-B sampler comparison.
func BenchmarkSamplingGranularity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Sampling(800)
	}
}

// BenchmarkPartitionStrategies runs the §IV load-balance sweep.
func BenchmarkPartitionStrategies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Imbalance(5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDataPacking runs the §V-A layout experiment.
func BenchmarkDataPacking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Packing(2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCachePollution runs the §V-B temp-churn experiment.
func BenchmarkCachePollution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Pollution(2)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r.Vec3Fraction, "vec3-heap-frac")
		}
	}
}

// BenchmarkPMECrossover runs a reduced PME-vs-direct comparison.
func BenchmarkPMECrossover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.PME(4, 6); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Engine benchmarks: one per Table I workload ----------------------------

func benchmarkSteps(b *testing.B, bench *workload.Benchmark, threads int) {
	b.Helper()
	cfg := bench.Cfg
	cfg.Threads = threads
	sim, err := core.New(bench.Sys, cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer sim.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "updates/s")
}

func BenchmarkStepSalt(b *testing.B)    { benchmarkSteps(b, workload.Salt(), 1) }
func BenchmarkStepNanocar(b *testing.B) { benchmarkSteps(b, workload.Nanocar(), 1) }
func BenchmarkStepAl1000(b *testing.B)  { benchmarkSteps(b, workload.Al1000(), 1) }

func BenchmarkStepSalt4Threads(b *testing.B)   { benchmarkSteps(b, workload.Salt(), 4) }
func BenchmarkStepAl10004Threads(b *testing.B) { benchmarkSteps(b, workload.Al1000(), 4) }

// --- Ablation benchmarks (DESIGN.md §5) --------------------------------------

// BenchmarkQueueTopology compares the shared work queue with per-worker
// queues (§II-B).
func BenchmarkQueueTopologyShared(b *testing.B) {
	bench := workload.Salt()
	cfg := bench.Cfg
	cfg.Threads = 4
	cfg.Queues = core.SharedQueue
	sim, err := core.New(bench.Sys, cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer sim.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step()
	}
}

func BenchmarkQueueTopologyPerWorker(b *testing.B) {
	bench := workload.Salt()
	cfg := bench.Cfg
	cfg.Threads = 4
	cfg.Queues = core.PerWorkerQueues
	sim, err := core.New(bench.Sys, cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer sim.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step()
	}
}

// BenchmarkForceReduction compares privatized force arrays + reduction
// (phase 5) against a mutex-guarded shared array.
func BenchmarkForceReductionPrivatized(b *testing.B) {
	bench := workload.Salt()
	cfg := bench.Cfg
	cfg.Threads = 4
	cfg.Reduce = core.ReducePrivatized
	sim, err := core.New(bench.Sys, cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer sim.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step()
	}
}

func BenchmarkForceReductionSharedMutex(b *testing.B) {
	bench := workload.Salt()
	cfg := bench.Cfg
	cfg.Threads = 4
	cfg.Reduce = core.ReduceSharedMutex
	sim, err := core.New(bench.Sys, cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer sim.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step()
	}
}

// BenchmarkNeighborListVsBruteForce: the O(N) linked-cell build against the
// O(N²) enumeration it replaces.
func BenchmarkNeighborListBuild(b *testing.B) {
	bench := workload.Al1000()
	nl := cells.NewNeighborList(bench.Cfg.LJCutoff, bench.Cfg.Skin)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nl.Build(bench.Sys)
	}
}

func BenchmarkBruteForcePairs(b *testing.B) {
	bench := workload.Al1000()
	rng := bench.Cfg.LJCutoff + bench.Cfg.Skin
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cells.BruteForcePairs(bench.Sys, rng)
	}
}

// BenchmarkEwaldVsPME: one force evaluation each on a 512-ion periodic
// rock-salt lattice.
func periodicSalt() *atom.System {
	const side, a = 8, 2.82
	s := atom.NewSystem(atom.CubicBox(side*a, true))
	for x := 0; x < side; x++ {
		for y := 0; y < side; y++ {
			for z := 0; z < side; z++ {
				q := 1.0
				if (x+y+z)%2 == 1 {
					q = -1
				}
				s.AddAtom(atom.Na, vec.New(float64(x)*a, float64(y)*a, float64(z)*a), vec.Zero, q, false)
			}
		}
	}
	return s
}

func BenchmarkEwaldDirect(b *testing.B) {
	s := periodicSalt()
	e := ewald.Ewald{Alpha: 0.45, RCut: 0.4999 * s.Box.L.X, KMax: 8}
	f := make([]vec.Vec3, s.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Accumulate(s, f); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPMEAccumulate(b *testing.B) {
	s := periodicSalt()
	p := ewald.PME{Alpha: 0.45, RCut: 0.4999 * s.Box.L.X, Mesh: 32, Order: 4}
	f := make([]vec.Vec3, s.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Accumulate(s, f); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScalingSweep fits the engine's empirical complexity exponents.
func BenchmarkScalingSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Scaling(5)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r.LJSlope, "lj-exponent")
			b.ReportMetric(r.CoulSlope, "coulomb-exponent")
		}
	}
}
