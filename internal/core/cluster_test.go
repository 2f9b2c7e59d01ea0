package core

import (
	"math"
	"testing"

	"mw/internal/atom"
	"mw/internal/vec"
)

// TestClusterMatchesDefaultEngine runs the cluster rung against the default
// half-list engine on the same seeded system and bounds the per-run
// deviation. The cluster kernels visit exactly the same pairs; only the
// summation order differs, so the trajectories should agree far tighter
// than any physical tolerance.
func TestClusterMatchesDefaultEngine(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"serial-reference", Config{Dt: 1, Cluster: true}},
		{"reorder-guided-fast", Config{Dt: 1, Cluster: true, Reorder: true, Partition: PartitionGuided}},
		{"threads-stealing", Config{Dt: 1, Threads: 4, Queues: WorkStealingQueues, Cluster: true, Reorder: true, Partition: PartitionGuided}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := mustSim(t, ljGas(4, 4.3, 120, false), Config{Dt: 1})
			defer ref.Close()
			got := mustSim(t, ljGas(4, 4.3, 120, false), tc.cfg)
			defer got.Close()
			var worst StateDiff
			for step := 0; step < 25; step++ {
				ref.Step()
				got.Step()
				worst = worst.Merge(ref.Snapshot().Diff(got.Snapshot()))
			}
			const tol = 1e-7
			// Negated-<= so a NaN-poisoned diff fails instead of comparing false.
			if !(worst.Pos <= tol && worst.Vel <= tol && worst.Force <= tol && worst.PE <= tol) {
				t.Errorf("cluster engine deviates from default: %v", worst)
			}
		})
	}
}

// TestClusterPeriodicBox exercises the cluster rung under a periodic box,
// where the engine must stay on the Go kernels (the packed kernel is
// non-periodic only).
func TestClusterPeriodicBox(t *testing.T) {
	ref := mustSim(t, ljGas(3, 4.3, 80, true), Config{Dt: 1})
	defer ref.Close()
	got := mustSim(t, ljGas(3, 4.3, 80, true), Config{Dt: 1, Cluster: true, Reorder: true, Partition: PartitionGuided})
	defer got.Close()
	var worst StateDiff
	for step := 0; step < 25; step++ {
		ref.Step()
		got.Step()
		worst = worst.Merge(ref.Snapshot().Diff(got.Snapshot()))
	}
	const tol = 1e-7
	if !(worst.Pos <= tol && worst.Vel <= tol && worst.Force <= tol && worst.PE <= tol) {
		t.Errorf("periodic cluster engine deviates from default: %v", worst)
	}
	// Pair accounting must follow the active list format: under Cluster the
	// pairs are mask bits, not ljLists entries.
	if got.LJPairs() == 0 {
		t.Error("cluster engine reports 0 LJ pairs")
	}
}

// TestAnisotropicPeriodicBoxRejected: the minimum-image check must use the
// *thinnest* periodic edge. A box ample in two dimensions but thinner than
// the interaction range in the third passes a max-edge check and silently
// folds neighbors onto the wrong image.
func TestAnisotropicPeriodicBoxRejected(t *testing.T) {
	s := atom.NewSystem(atom.NewBox(20, 5, 20, true))
	s.AddAtom(atom.Ar, vec.New(1, 1, 1), vec.Zero, 0, false)
	if _, err := New(s, Config{LJCutoff: 8, Skin: 0.8}); err == nil {
		t.Error("periodic box with one undersized edge accepted")
	}
	// The same extents without periodicity are fine.
	s2 := atom.NewSystem(atom.NewBox(20, 5, 20, false))
	s2.AddAtom(atom.Ar, vec.New(1, 1, 1), vec.Zero, 0, false)
	if _, err := New(s2, Config{LJCutoff: 8, Skin: 0.8}); err != nil {
		t.Errorf("non-periodic thin box rejected: %v", err)
	}
}

// TestRunForSteps: RunFor must round to the nearest whole step when the
// requested duration is a whole multiple of Dt up to floating-point error —
// naive truncation turns 10.0/0.1 = 99.999… into 99 steps.
func TestRunForSteps(t *testing.T) {
	cases := []struct {
		dt, fs float64
		want   int
	}{
		{0.1, 10, 100}, // 10/0.1 = 99.999…; truncation would drop a step
		{0.7, 7, 10},   // 7/0.7 = 9.999…
		{2, 10, 5},     // exact
		{0.3, 1, 3},    // 3.33 steps: not near-integral, truncate
		{0.1, 9.99, 99},
		{1, 0.4, 0},
	}
	for _, tc := range cases {
		s := ljGas(2, 4.3, 10, false)
		sim := mustSim(t, s, Config{Dt: tc.dt})
		sim.RunFor(tc.fs)
		if got := sim.StepCount(); got != tc.want {
			t.Errorf("RunFor(%v) at Dt=%v: %d steps, want %d", tc.fs, tc.dt, got, tc.want)
		}
		sim.Close()
	}
	// Guard the guard: a genuinely integral ratio stays put.
	if r := 10.0 / 2.0; math.Round(r) != 5 {
		t.Fatal("arithmetic sanity")
	}
}
