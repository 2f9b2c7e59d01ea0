package core

import (
	"fmt"
	"math"

	"mw/internal/vec"
)

// Snapshot is a deep copy of the dynamical state of a simulation at a step
// boundary: positions, velocities, the forces from the most recent force
// evaluation, and the potential energy they produced. internal/verify
// captures one per step from the serial reference engine and compares every
// parallel topology against it in lockstep.
type Snapshot struct {
	Step  int
	PE    float64
	Pos   []vec.Vec3
	Vel   []vec.Vec3
	Force []vec.Vec3
}

// Snapshot captures the current state. It must be called between steps, not
// from a telemetry.Sink callback mid-phase. Snapshots are always expressed in
// original atom IDs: when the reorder pass has permuted the system, the
// arrays are scattered back through the inverse index map, so snapshots of
// reordered and file-ordered runs of the same physics are directly
// comparable (this is what lets the verify differential matrix include
// -reorder combos without any special casing).
func (sim *Simulation) Snapshot() Snapshot {
	snap := Snapshot{
		Step:  sim.step,
		PE:    sim.pe,
		Pos:   append([]vec.Vec3(nil), sim.Sys.Pos...),
		Vel:   append([]vec.Vec3(nil), sim.Sys.Vel...),
		Force: append([]vec.Vec3(nil), sim.Sys.Force...),
	}
	if orig := sim.ro.orig; orig != nil {
		for slot, id := range orig {
			snap.Pos[id] = sim.Sys.Pos[slot]
			snap.Vel[id] = sim.Sys.Vel[slot]
			snap.Force[id] = sim.Sys.Force[slot]
		}
	}
	return snap
}

// StateDiff holds the maximum absolute component-wise deviations between two
// snapshots.
type StateDiff struct {
	Pos, Vel, Force, PE float64
}

// Diff compares two snapshots of equally sized systems.
func (a Snapshot) Diff(b Snapshot) StateDiff {
	d := StateDiff{PE: math.Abs(a.PE - b.PE)}
	d.Pos = maxAbsDiff(a.Pos, b.Pos)
	d.Vel = maxAbsDiff(a.Vel, b.Vel)
	d.Force = maxAbsDiff(a.Force, b.Force)
	return d
}

func maxAbsDiff(a, b []vec.Vec3) float64 {
	var mx float64
	for i := range a {
		if d := a[i].Sub(b[i]).MaxAbs(); d > mx {
			mx = d
		}
	}
	return mx
}

// Merge returns the component-wise maximum of two diffs — the worst
// deviation seen across a run.
func (d StateDiff) Merge(o StateDiff) StateDiff {
	return StateDiff{
		Pos:   math.Max(d.Pos, o.Pos),
		Vel:   math.Max(d.Vel, o.Vel),
		Force: math.Max(d.Force, o.Force),
		PE:    math.Max(d.PE, o.PE),
	}
}

// String formats the diff compactly for reports.
func (d StateDiff) String() string {
	return fmt.Sprintf("pos=%.3g vel=%.3g force=%.3g pe=%.3g", d.Pos, d.Vel, d.Force, d.PE)
}
