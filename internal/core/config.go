// Package core implements the parallel 3D molecular dynamics engine of
// Molecular Workbench as described in the paper's §II: a timestep split into
// phases — predictor, neighbor-list validity check, fused neighbor
// rebuild + force computation, reduction across privatized force arrays,
// corrector — with barriers between phases, executed by a fixed pool of
// workers fed through work queues.
package core

import (
	"mw/internal/forces"
	"mw/internal/telemetry"
)

// Partition selects how work chunks are assigned to workers within a phase
// (paper §II-B discusses the 1/N block split and the load-shape problems of
// the fused phase; §IV analyzes the resulting imbalance).
type Partition int

const (
	// PartitionCyclic deals chunks round-robin: chunk c goes to worker
	// c mod N. This balances the triangular load shape of half pair lists
	// and is the engine default.
	PartitionCyclic Partition = iota
	// PartitionBlock gives each worker one contiguous range of chunks — the
	// paper's "each thread is assigned a fraction 1/N of the total atoms".
	// Under half pairing, lower-numbered chunks carry more pairs, so this
	// strategy exhibits the §IV load imbalance.
	PartitionBlock
	// PartitionGuided hands out batches of decreasing size from a shared
	// counter (OpenMP guided-style self-scheduling).
	PartitionGuided
	// PartitionDynamic hands out one chunk at a time from a shared counter —
	// maximal balance, maximal queue traffic.
	PartitionDynamic
)

// String returns the partition strategy name.
func (p Partition) String() string {
	switch p {
	case PartitionCyclic:
		return "cyclic"
	case PartitionBlock:
		return "block"
	case PartitionGuided:
		return "guided"
	case PartitionDynamic:
		return "dynamic"
	}
	return "unknown"
}

// QueueTopology selects the executor layout (paper §II-B: single shared
// work queue vs. one queue per thread).
type QueueTopology int

const (
	// SharedQueue: one FixedPool, all workers pull from a single queue.
	SharedQueue QueueTopology = iota
	// PerWorkerQueues: one single-worker pool per worker, tasks routed to a
	// specific worker's private queue (also the §V-B affinity mechanism).
	PerWorkerQueues
	// WorkStealingQueues: per-worker deques with idle-worker stealing — the
	// ForkJoinPool-style resolution of the shared-vs-private trade-off.
	// Work chunks are submitted one task each to their owner's deque; idle
	// workers steal, so §II-B's "one queue has considerable work while
	// other threads sit idle" cannot happen.
	WorkStealingQueues
)

// String returns the topology name.
func (q QueueTopology) String() string {
	switch q {
	case PerWorkerQueues:
		return "per-worker-queues"
	case WorkStealingQueues:
		return "work-stealing"
	}
	return "shared-queue"
}

// ReduceMode selects how per-pair forces reach the shared force array.
type ReduceMode int

const (
	// ReducePrivatized gives every worker a private force array and adds a
	// reduction phase — the paper's phase 5.
	ReducePrivatized ReduceMode = iota
	// ReduceSharedMutex writes directly into the shared force array under a
	// global mutex — the naive alternative, kept as an ablation.
	ReduceSharedMutex
)

// String returns the reduction mode name.
func (r ReduceMode) String() string {
	if r == ReduceSharedMutex {
		return "shared-mutex"
	}
	return "privatized"
}

// Phase identifies one stage of the timestep (paper §II-A's six phases;
// neighbor rebuild is fused into the force phase, and the validity check is
// phase 2).
type Phase int

const (
	PhasePredictor Phase = iota
	PhaseNeighborCheck
	PhaseForce // fused neighbor rebuild + all force computations
	PhaseReduce
	PhaseCorrector
	NumPhases
)

// String returns the phase name.
func (p Phase) String() string {
	switch p {
	case PhasePredictor:
		return "predictor"
	case PhaseNeighborCheck:
		return "neighbor-check"
	case PhaseForce:
		return "force"
	case PhaseReduce:
		return "reduce"
	case PhaseCorrector:
		return "corrector"
	}
	return "unknown"
}

// PhaseNames returns the phase-name table indexed by Phase — the table a
// telemetry.Recorder for this engine should be built with.
func PhaseNames() []string {
	names := make([]string, NumPhases)
	for ph := Phase(0); ph < NumPhases; ph++ {
		names[ph] = ph.String()
	}
	return names
}

// Config holds engine parameters. The zero value is not usable; call
// (Config).withDefaults via New.
type Config struct {
	// Dt is the timestep in fs (default 2, the paper's upper step size).
	Dt float64
	// LJCutoff is the Lennard-Jones cutoff radius in Å (default 8).
	LJCutoff float64
	// Skin is the neighbor-list skin in Å (default 0.8); the list is rebuilt
	// when any atom moves farther than Skin/2.
	Skin float64
	// CoulombSoftening is the Coulomb softening length in Å (default 0.05).
	CoulombSoftening float64
	// Threads is the worker count (default 1 = serial).
	Threads int
	// Partition is the chunk-assignment strategy (default cyclic).
	Partition Partition
	// Queues selects the executor topology (default shared queue).
	Queues QueueTopology
	// Reduce selects force accumulation (default privatized arrays).
	Reduce ReduceMode
	// ChunkAtoms is the work-chunk granularity in atoms/bonds (default 64).
	ChunkAtoms int
	// Reorder enables the engine-native spatial data reordering of §V-A: on
	// every neighbor-list rebuild, atoms are permuted into Morton (Z-order)
	// cell order — positions, velocities, forces, charges gathered, bond
	// indices remapped, exclusions rebuilt — so the half-list traversal
	// walks nearly contiguous memory. An inverse index map is maintained;
	// Snapshot, SystemInOriginalOrder and OriginalIDs report original atom
	// IDs, so trajectories and the verify matrix are unaffected by the
	// relabeling. Reorder also selects the fast LJ kernels, for any system
	// (ulp-level differences, bounded by the differential matrix); it is off
	// by default, so golden trajectories stay bit-identical. With Reorder on,
	// atom chunk boundaries are aligned to Morton cell blocks, so
	// guided/dynamic partitions deal out contiguous blocks of cells in
	// decreasing batches (the hybrid cell-task scheme of Mangiardi & Meyer,
	// arXiv:1611.00075).
	Reorder bool
	// Cluster selects the Verlet cluster-pair (MxN) neighbor format for the
	// LJ cutoff loop: atoms grouped into clusters of cells.ClusterSize with
	// per-cluster-pair interaction masks, the GROMACS-style layout that
	// keeps SIMD lanes full under Al-1000's frequent rebuilds. On its own it
	// runs the bitwise-deterministic reference cluster kernel; with Reorder
	// it runs the fast variant or, on capable amd64 hardware with a
	// non-periodic box, the packed AVX2 kernel. The cluster masks encode
	// Newton-3 half-pair ownership, like the half range lists.
	Cluster bool
	// Thermostat optionally controls temperature each step (nil = NVE).
	Thermostat Thermostat
	// Field is an optional uniform external field.
	Field forces.Field
	// Telemetry optionally receives live engine events — phase begin/end,
	// per-chunk completions, and (via the pool executors) steals and parks.
	// It is the engine's one observer hook: the production telemetry.Recorder
	// (a few nanoseconds per event; the observer-native experiment gates it
	// under 2%) and the §IV-A lab monitors in internal/perfmon all attach
	// here. nil costs one branch per phase plus one per chunk.
	Telemetry telemetry.Sink
}

// withDefaults fills unset fields with engine defaults.
func (c Config) withDefaults() Config {
	if c.Dt <= 0 {
		c.Dt = 2
	}
	if c.LJCutoff <= 0 {
		c.LJCutoff = 8
	}
	if c.Skin < 0 {
		c.Skin = 0
	} else if c.Skin == 0 {
		c.Skin = 0.8
	}
	if c.CoulombSoftening == 0 {
		c.CoulombSoftening = 0.05
	}
	if c.Threads <= 0 {
		c.Threads = 1
	}
	if c.ChunkAtoms <= 0 {
		c.ChunkAtoms = 64
	}
	return c
}
