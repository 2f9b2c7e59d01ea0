package forces

import (
	"math"
	"testing"

	"mw/internal/atom"
	"mw/internal/cells"
	"mw/internal/vec"
)

func TestAccumulateRangeListMatchesGlobal(t *testing.T) {
	s := randomAtoms(31, 60, 14, 2.0)
	lj := NewLJ(s.Elements, 6)
	nl := cells.NewNeighborList(6, 0.5)
	nl.Build(s)
	want := make([]vec.Vec3, s.N())
	peWant := lj.Accumulate(s, nl, want)

	g := cells.NewGrid(s.Box, 6.5)
	g.Assign(s)
	got := make([]vec.Vec3, s.N())
	var pe float64
	var rl cells.RangeList
	for _, span := range [][2]int{{0, 20}, {20, 45}, {45, 60}} {
		g.BuildRange(s, 6.5, span[0], span[1], &rl)
		pe += lj.AccumulateRangeList(s, &rl, got)
	}
	if math.Abs(pe-peWant) > 1e-9*(1+math.Abs(peWant)) {
		t.Errorf("PE: range lists %v vs global %v", pe, peWant)
	}
	for i := range want {
		if !got[i].ApproxEqual(want[i], 1e-9*(1+want[i].Norm())) {
			t.Fatalf("force %d mismatch", i)
		}
	}
}

func TestAngleValue(t *testing.T) {
	s := atom.NewSystem(atom.CubicBox(20, false))
	s.AddAtom(atom.C, vec.New(6, 5, 5), vec.Zero, 0, false) // I
	s.AddAtom(atom.C, vec.New(5, 5, 5), vec.Zero, 0, false) // J (vertex)
	s.AddAtom(atom.C, vec.New(5, 6, 5), vec.Zero, 0, false) // K
	a := atom.Angle{I: 0, J: 1, K: 2}
	if got := AngleValue(s, a); math.Abs(got-math.Pi/2) > 1e-12 {
		t.Errorf("AngleValue = %v, want π/2", got)
	}
	// Degenerate (coincident) vertex.
	s.Pos[0] = s.Pos[1]
	if got := AngleValue(s, a); got != 0 {
		t.Errorf("degenerate AngleValue = %v", got)
	}
}

func TestDihedralValue(t *testing.T) {
	s := atom.NewSystem(atom.CubicBox(20, false))
	// A 90° dihedral: I below the JK axis plane, L out of it.
	s.AddAtom(atom.C, vec.New(5, 4, 5), vec.Zero, 0, false)
	s.AddAtom(atom.C, vec.New(5, 5, 5), vec.Zero, 0, false)
	s.AddAtom(atom.C, vec.New(6, 5, 5), vec.Zero, 0, false)
	s.AddAtom(atom.C, vec.New(6, 5, 6), vec.Zero, 0, false)
	to := atom.Torsion{I: 0, J: 1, K: 2, L: 3}
	got := DihedralValue(s, to)
	if math.Abs(math.Abs(got)-math.Pi/2) > 1e-12 {
		t.Errorf("DihedralValue = %v, want ±π/2", got)
	}
	// Collinear chain: 0.
	s.Pos[3] = vec.New(7, 5, 5)
	s.Pos[0] = vec.New(4, 5, 5)
	if got := DihedralValue(s, to); got != 0 {
		t.Errorf("collinear DihedralValue = %v", got)
	}
	// The value must be consistent with the energy minimum: a torsion
	// parameterized at the measured dihedral exerts no force.
	s.Pos[0] = vec.New(5, 4, 5.3)
	s.Pos[3] = vec.New(6, 5.4, 6)
	phi := DihedralValue(s, to)
	s.Torsions = []atom.Torsion{{I: 0, J: 1, K: 2, L: 3, V0: 2, N: 1, Phi0: phi}}
	f := make([]vec.Vec3, 4)
	pe := AccumulateTorsionsRange(s, s.Torsions, 0, 1, f)
	if pe > 1e-12 {
		t.Errorf("torsion at its own Phi0 has PE %v", pe)
	}
	for i, fi := range f {
		if fi.Norm() > 1e-9 {
			t.Errorf("torsion at its own Phi0 exerts force on %d: %v", i, fi)
		}
	}
}
