package verify

import (
	"strings"
	"testing"

	"mw/internal/core"
	"mw/internal/vec"
)

const testThreads = 4

// TestCombosCoverMatrix guards the acceptance criterion: every executor
// topology (serial, shared queue, per-worker queues, work stealing) must be
// crossed with every reduction mode (privatized, shared mutex), and the
// cell-ordered hot path (reorder + guided) must cover all four topologies,
// and the cluster-pair rung must cover the serial reference kernel plus
// layered reorder variants.
func TestCombosCoverMatrix(t *testing.T) {
	combos := Combos(testThreads)
	if len(combos) != 16 {
		t.Fatalf("got %d combos, want 16 (4 topologies × 2 reduce modes + 4 reorder + 3 cluster + 1 reorder/tracing)", len(combos))
	}
	seen := map[string]bool{}
	for _, c := range combos {
		seen[c.Name] = true
		if c.Name != "serial/privatized" && c.Name != "serial/shared-mutex" &&
			c.Name != "serial/reorder+guided" && c.Name != "serial/cluster" && c.Threads < 2 {
			t.Errorf("parallel combo %s has %d threads", c.Name, c.Threads)
		}
	}
	for _, topo := range []string{"serial", "shared-queue", "per-worker-queues", "work-stealing"} {
		for _, red := range []string{"privatized", "shared-mutex"} {
			if !seen[topo+"/"+red] {
				t.Errorf("matrix missing %s/%s", topo, red)
			}
		}
		if !seen[topo+"/reorder+guided"] {
			t.Errorf("matrix missing %s/reorder+guided", topo)
		}
	}
	if !seen["shared-queue/reorder+guided+tracing"] {
		t.Error("matrix missing the reorder + tracing variant")
	}
	if !seen["serial/cluster"] {
		t.Error("matrix missing the serial cluster-reference combo")
	}
	for _, q := range []string{"shared-queue", "work-stealing"} {
		if !seen[q+"/cluster+reorder+guided"] {
			t.Errorf("matrix missing %s/cluster+reorder+guided", q)
		}
	}
	for _, c := range combos {
		if c.Reorder && c.Partition != core.PartitionGuided {
			t.Errorf("%s: reorder combos must use the guided partition", c.Name)
		}
	}
}

// TestTracingChangesNoPhysics is the bitwise half of the tracing combo's
// promise: the serial engine with the full tracer installed must produce
// positions identical — not within tolerance, identical — to the serial
// engine without it. (The parallel tracing combo goes through the
// differential matrix above like every other cell.)
func TestTracingChangesNoPhysics(t *testing.T) {
	w := WorkloadByName("salt")
	if w == nil {
		t.Fatal("salt workload missing")
	}
	run := func(c Combo) []vec.Vec3 {
		sim, err := core.New(w.Sys.Clone(), c.Apply(w.Cfg))
		if err != nil {
			t.Fatal(err)
		}
		defer sim.Close()
		sim.Run(24)
		return append([]vec.Vec3(nil), sim.SystemInOriginalOrder().Pos...)
	}
	plain := run(Combo{Name: "serial", Threads: 1})
	traced := run(Combo{Name: "serial+tracing", Threads: 1, Tracing: true})
	if len(plain) != len(traced) {
		t.Fatalf("atom counts differ: %d vs %d", len(plain), len(traced))
	}
	for i := range plain {
		if plain[i] != traced[i] {
			t.Fatalf("atom %d position differs with tracing on: %v vs %v", i, plain[i], traced[i])
		}
	}
	if Checksum(plain, DefaultQuantum) != Checksum(traced, DefaultQuantum) {
		t.Error("golden checksum differs with tracing on")
	}
}

// TestDifferentialMatrix is the tentpole check: all three paper workloads,
// every topology × reduction combo, compared per step against the serial
// reference within tolerance.
func TestDifferentialMatrix(t *testing.T) {
	for _, w := range Workloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			results, err := RunDifferential(w, testThreads)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range results {
				if err := w.Tol.Check(r.Worst); err != nil {
					t.Errorf("%s under %s: %v (worst %s)", r.Workload, r.Combo, err, r.Worst)
				}
				// The serial privatized combo replays the reference
				// configuration: it must reproduce the trajectory bit for
				// bit, or the engine is nondeterministic even serially.
				if r.Combo == "serial/privatized" && (r.Worst != core.StateDiff{}) {
					t.Errorf("serial self-check not bitwise identical: %s", r.Worst)
				}
				if r.Rebuilds < 1 {
					t.Errorf("%s under %s: no neighbor-list rebuild in window; differential would not cover the rebuild path", r.Workload, r.Combo)
				}
			}
		})
	}
}

// TestAl1000WindowIsRebuildHeavy asserts the warmup puts the differential
// window into the collision regime the workload exists to exercise.
func TestAl1000WindowIsRebuildHeavy(t *testing.T) {
	w := WorkloadByName("Al-1000")
	if w == nil {
		t.Fatal("Al-1000 workload missing")
	}
	base, err := w.Warm()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := ReferenceTrajectory(base, Reference().Apply(w.Cfg), w.Steps)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Differential(base, Reference().Apply(w.Cfg), ref)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rebuilds < 2 {
		t.Errorf("only %d rebuilds in the Al-1000 window; want ≥2 (collision regime)", r.Rebuilds)
	}
}

// TestDifferentialDetectsPerturbation is the negative control: a 1e-3 Å
// nudge to one atom must blow through every workload tolerance, proving the
// harness would catch a real physics change.
func TestDifferentialDetectsPerturbation(t *testing.T) {
	w := Workloads()[1] // salt: cheap, no warmup
	base, err := w.Warm()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := ReferenceTrajectory(base, Reference().Apply(w.Cfg), w.Steps)
	if err != nil {
		t.Fatal(err)
	}
	perturbed := base.Clone()
	perturbed.Pos[0] = perturbed.Pos[0].Add(vec.New(1e-3, 0, 0))
	r, err := Differential(perturbed, Reference().Apply(w.Cfg), ref)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Tol.Check(r.Worst); err == nil {
		t.Errorf("perturbed trajectory passed tolerance (worst %s); harness is not sensitive enough", r.Worst)
	}
}

// TestReferenceTrajectoryDeterministic runs the serial reference twice; the
// trajectories must agree exactly, or golden fixtures could never hold.
func TestReferenceTrajectoryDeterministic(t *testing.T) {
	w := Workloads()[1]
	a, err := ReferenceTrajectory(w.Sys, Reference().Apply(w.Cfg), 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReferenceTrajectory(w.Sys, Reference().Apply(w.Cfg), 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if d := a[i].Diff(b[i]); d != (core.StateDiff{}) {
			t.Fatalf("step %d: repeated serial runs differ: %s", i, d)
		}
	}
}

// TestToleranceCheck exercises the bound formatter.
func TestToleranceCheck(t *testing.T) {
	tol := Tolerance{Pos: 1e-7, Vel: 1e-7, Force: 1e-5, PE: 1e-5}
	if err := tol.Check(core.StateDiff{Pos: 1e-9}); err != nil {
		t.Errorf("within tolerance, got %v", err)
	}
	err := tol.Check(core.StateDiff{Pos: 1e-3})
	if err == nil || !strings.Contains(err.Error(), "pos") {
		t.Errorf("want pos violation, got %v", err)
	}
	// Zero bounds are "not checked".
	if err := (Tolerance{}).Check(core.StateDiff{Pos: 1}); err != nil {
		t.Errorf("zero tolerance should skip checks, got %v", err)
	}
}
