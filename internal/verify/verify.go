// Package verify is the repository's correctness gate. The paper's central
// claim is that the parallelized Molecular Workbench engine computes the
// same physics as the serial engine across thread-pool topologies while
// only the performance differs; this package checks exactly that, three
// ways:
//
//  1. Differential testing — the same seeded system is run through every
//     executor topology (serial, shared queue, per-worker queues, work
//     stealing) × reduction mode (privatized arrays, shared mutex) and
//     compared per step against the serial reference on all three Table I
//     workloads (nanocar, salt, Al-1000).
//  2. Physics invariants — NVE total-energy drift bounds, linear-momentum
//     conservation, Newton's-third-law force antisymmetry on randomized
//     systems, and neighbor-list completeness (cell-list pairs ⊇
//     brute-force pairs within the interaction range).
//  3. Golden-trajectory regression — FNV-1a checksums over quantized
//     positions of the serial reference, committed as fixtures, so a PR
//     that silently changes the physics fails tier-1 tests.
//
// The whole suite runs as `go test ./internal/verify/...` (including under
// -race) and as the `mwverify` command.
package verify

import (
	"fmt"

	"mw/internal/core"
	"mw/internal/telemetry"
	"mw/internal/tracing"
	"mw/internal/workload"
)

// Combo is one executor-topology × reduction-mode cell of the verification
// matrix, optionally layered with the §V-A cell-ordered hot path (Morton
// reorder + guided cell-block chunking), the cluster-pair list format, and
// the structured tracer (proving observation changes no physics).
type Combo struct {
	Name      string
	Threads   int
	Queues    core.QueueTopology
	Reduce    core.ReduceMode
	Partition core.Partition
	Reorder   bool
	Cluster   bool
	Tracing   bool
}

// Apply overlays the combo onto a benchmark's recommended config.
func (c Combo) Apply(cfg core.Config) core.Config {
	cfg.Threads = c.Threads
	cfg.Queues = c.Queues
	cfg.Reduce = c.Reduce
	cfg.Partition = c.Partition
	cfg.Reorder = c.Reorder
	cfg.Cluster = c.Cluster
	if c.Tracing {
		// The full tracer stack on small rings: spans, straggler
		// attribution, drain, anomaly detection. The differential run then
		// proves the instrumented engine's physics is bit-for-bit the
		// uninstrumented engine's.
		threads := c.Threads
		if threads < 1 {
			threads = 1
		}
		rec := telemetry.NewRecorderSize(threads, core.PhaseNames(), 1024)
		cfg.Telemetry = tracing.New(rec, tracing.Config{RingSteps: 8})
	}
	return cfg
}

// Combos enumerates the full verification matrix for the given parallel
// worker count: the serial topology and all three queue topologies, each
// under both reduction modes; then the cell-ordered hot path (Morton reorder
// + guided partition) across all four topologies. The first entry (serial + privatized) is the reference
// configuration the rest are compared against.
func Combos(threads int) []Combo {
	if threads < 2 {
		threads = 4
	}
	var out []Combo
	for _, r := range []core.ReduceMode{core.ReducePrivatized, core.ReduceSharedMutex} {
		out = append(out, Combo{
			Name:    "serial/" + r.String(),
			Threads: 1,
			Reduce:  r,
		})
	}
	for _, q := range []core.QueueTopology{core.SharedQueue, core.PerWorkerQueues, core.WorkStealingQueues} {
		for _, r := range []core.ReduceMode{core.ReducePrivatized, core.ReduceSharedMutex} {
			out = append(out, Combo{
				Name:    fmt.Sprintf("%s/%s", q, r),
				Threads: threads,
				Queues:  q,
				Reduce:  r,
			})
		}
	}
	// Cell-ordered hot path: atoms permuted into Morton order, guided
	// partition dealing contiguous cell blocks. Snapshots are always in
	// original IDs, so these compare against the same reference.
	out = append(out, Combo{
		Name:      "serial/reorder+guided",
		Threads:   1,
		Partition: core.PartitionGuided,
		Reorder:   true,
	})
	for _, q := range []core.QueueTopology{core.SharedQueue, core.PerWorkerQueues, core.WorkStealingQueues} {
		out = append(out, Combo{
			Name:      fmt.Sprintf("%s/reorder+guided", q),
			Threads:   threads,
			Queues:    q,
			Partition: core.PartitionGuided,
			Reorder:   true,
		})
	}
	// Cluster-pair rungs: the reference cluster kernel serially (bitwise
	// path), then layered with reorder+guided so the engine auto-picks the
	// fast variant — or, on capable amd64 with a non-periodic box, the
	// packed AVX2 kernel — across the parallel topologies.
	out = append(out, Combo{
		Name:    "serial/cluster",
		Threads: 1,
		Cluster: true,
	})
	for _, q := range []core.QueueTopology{core.SharedQueue, core.WorkStealingQueues} {
		out = append(out, Combo{
			Name:      fmt.Sprintf("%s/cluster+reorder+guided", q),
			Threads:   threads,
			Queues:    q,
			Partition: core.PartitionGuided,
			Reorder:   true,
			Cluster:   true,
		})
	}
	// The tracing combo: the hardest layered configuration with the
	// structured tracer installed, proving the trace timeline observes the
	// physics without changing it.
	out = append(out, Combo{
		Name:      "shared-queue/reorder+guided+tracing",
		Threads:   threads,
		Partition: core.PartitionGuided,
		Reorder:   true,
		Tracing:   true,
	})
	return out
}

// Reference is the configuration every combo is measured against.
func Reference() Combo {
	return Combo{Name: "serial/privatized", Threads: 1}
}

// Workload couples a paper benchmark with the differential-run parameters
// chosen for it.
type Workload struct {
	*workload.Benchmark
	// Warmup steps run once, serially, before the differential window, to
	// bring the system into its characteristic regime (Al-1000 needs the
	// projectile near the block so that collisions and neighbor-list
	// rebuilds happen inside the window).
	Warmup int
	// Steps is the differential window length.
	Steps int
	// Tol bounds the per-step deviation from the serial reference.
	Tol Tolerance
}

// Tolerance bounds a StateDiff. Zero fields mean "not checked".
type Tolerance struct {
	Pos, Vel, Force, PE float64
}

// Check returns an error naming the first exceeded bound.
func (t Tolerance) Check(d core.StateDiff) error {
	type bound struct {
		name     string
		got, tol float64
	}
	for _, b := range []bound{
		{"pos", d.Pos, t.Pos},
		{"vel", d.Vel, t.Vel},
		{"force", d.Force, t.Force},
		{"pe", d.PE, t.PE},
	} {
		if b.tol > 0 && b.got > b.tol {
			return fmt.Errorf("%s deviation %.3g exceeds tolerance %.3g", b.name, b.got, b.tol)
		}
	}
	return nil
}

// Workloads returns the three Table I benchmarks with their differential
// parameters. Tolerances are two to three decades above the FP-reordering
// noise floor measured across topologies (see EXPERIMENTS.md §Verification)
// and two-plus decades below any genuine physics change, which shows up at
// ≥1e-3 Å within a couple of steps.
func Workloads() []Workload {
	return []Workload{
		{
			Benchmark: workload.Nanocar(),
			Steps:     16,
			Tol:       Tolerance{Pos: 1e-7, Vel: 1e-7, Force: 1e-5, PE: 1e-5},
		},
		{
			Benchmark: workload.Salt(),
			Steps:     16,
			Tol:       Tolerance{Pos: 1e-7, Vel: 1e-7, Force: 1e-5, PE: 1e-5},
		},
		{
			// 220 warmup steps put the gold projectile in contact with the
			// block, so the window covers collisions and frequent rebuilds —
			// the regime §III says characterizes this workload.
			Benchmark: workload.Al1000(),
			Warmup:    220,
			Steps:     16,
			Tol:       Tolerance{Pos: 1e-6, Vel: 1e-6, Force: 1e-4, PE: 1e-4},
		},
	}
}

// WorkloadByName returns the named verification workload or nil.
func WorkloadByName(name string) *Workload {
	for _, w := range Workloads() {
		if w.Name == name {
			w := w
			return &w
		}
	}
	return nil
}
