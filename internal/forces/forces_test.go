package forces

import (
	"math"
	"math/rand"
	"testing"

	"mw/internal/atom"
	"mw/internal/cells"
	"mw/internal/units"
	"mw/internal/vec"
)

// numGrad computes -dE/dPos[i] by central differences for an arbitrary
// energy functional, giving the reference force on atom i.
func numGrad(s *atom.System, i int, energy func(*atom.System) float64) vec.Vec3 {
	const h = 1e-6
	var g [3]float64
	for d := 0; d < 3; d++ {
		orig := s.Pos[i]
		bump := func(delta float64) float64 {
			p := orig
			switch d {
			case 0:
				p.X += delta
			case 1:
				p.Y += delta
			case 2:
				p.Z += delta
			}
			s.Pos[i] = p
			e := energy(s)
			s.Pos[i] = orig
			return e
		}
		g[d] = -(bump(h) - bump(-h)) / (2 * h)
	}
	return vec.New(g[0], g[1], g[2])
}

func ljEnergy(lj *LJ) func(*atom.System) float64 {
	return func(s *atom.System) float64 {
		nl := cells.NewNeighborList(lj.Cutoff, 0.5)
		nl.Build(s)
		f := make([]vec.Vec3, s.N())
		return lj.Accumulate(s, nl, f)
	}
}

func randomAtoms(seed int64, n int, l float64, minSep float64) *atom.System {
	s := atom.NewSystem(atom.CubicBox(l, false))
	rng := rand.New(rand.NewSource(seed))
	for len(s.Pos) < n {
		p := vec.New(1+rng.Float64()*(l-2), 1+rng.Float64()*(l-2), 1+rng.Float64()*(l-2))
		ok := true
		for _, q := range s.Pos {
			if q.Dist(p) < minSep {
				ok = false
				break
			}
		}
		if ok {
			s.AddAtom(atom.Ar, p, vec.Zero, 0, false)
		}
	}
	return s
}

func TestLJForceMatchesNumericalGradient(t *testing.T) {
	s := randomAtoms(1, 12, 12, 3.0)
	lj := NewLJ(s.Elements, 8)
	nl := cells.NewNeighborList(8, 0.5)
	nl.Build(s)
	f := make([]vec.Vec3, s.N())
	lj.Accumulate(s, nl, f)
	for i := 0; i < s.N(); i++ {
		want := numGrad(s, i, ljEnergy(lj))
		if !f[i].ApproxEqual(want, 1e-5*(1+want.Norm())) {
			t.Errorf("atom %d: analytic %v vs numeric %v", i, f[i], want)
		}
	}
}

func TestLJNewtonThirdLaw(t *testing.T) {
	s := randomAtoms(2, 60, 15, 2.0)
	lj := NewLJ(s.Elements, 6)
	nl := cells.NewNeighborList(6, 0.5)
	nl.Build(s)
	f := make([]vec.Vec3, s.N())
	lj.Accumulate(s, nl, f)
	var sum vec.Vec3
	for _, fi := range f {
		sum = sum.Add(fi)
	}
	if sum.Norm() > 1e-9 {
		t.Errorf("net LJ force = %v", sum)
	}
}

func TestLJTwoAtomAnalytic(t *testing.T) {
	// Two argon atoms at the potential minimum r = 2^(1/6) σ feel no force.
	s := atom.NewSystem(atom.CubicBox(20, false))
	sigma := atom.Builtin[atom.Ar].Sigma
	rmin := math.Pow(2, 1.0/6.0) * sigma
	s.AddAtom(atom.Ar, vec.New(5, 5, 5), vec.Zero, 0, false)
	s.AddAtom(atom.Ar, vec.New(5+rmin, 5, 5), vec.Zero, 0, false)
	lj := NewLJ(s.Elements, 10)
	nl := cells.NewNeighborList(10, 0.5)
	nl.Build(s)
	f := make([]vec.Vec3, 2)
	pe := lj.Accumulate(s, nl, f)
	if f[0].Norm() > 1e-10 {
		t.Errorf("force at minimum = %v", f[0])
	}
	// Energy at minimum is -ε (plus the small cutoff shift).
	eps := atom.Builtin[atom.Ar].Epsilon
	if math.Abs(pe-(-eps)) > 0.01*eps {
		t.Errorf("PE at minimum = %v, want ≈ %v", pe, -eps)
	}
}

func TestLJCutoffRespected(t *testing.T) {
	s := atom.NewSystem(atom.CubicBox(30, false))
	s.AddAtom(atom.Ar, vec.New(5, 5, 5), vec.Zero, 0, false)
	s.AddAtom(atom.Ar, vec.New(16, 5, 5), vec.Zero, 0, false) // beyond cutoff 10
	lj := NewLJ(s.Elements, 10)
	nl := cells.NewNeighborList(10, 2)
	nl.Build(s)
	f := make([]vec.Vec3, 2)
	pe := lj.Accumulate(s, nl, f)
	if pe != 0 || f[0] != vec.Zero || f[1] != vec.Zero {
		t.Errorf("interaction beyond cutoff: pe=%v f=%v", pe, f)
	}
}

func TestLJFixedPairSkipped(t *testing.T) {
	s := atom.NewSystem(atom.CubicBox(20, false))
	s.AddAtom(atom.Au, vec.New(5, 5, 5), vec.Zero, 0, true)
	s.AddAtom(atom.Au, vec.New(7, 5, 5), vec.Zero, 0, true)
	s.AddAtom(atom.Ar, vec.New(5, 7, 5), vec.Zero, 0, false)
	lj := NewLJ(s.Elements, 8)
	nl := cells.NewNeighborList(8, 0.5)
	nl.Build(s)
	f := make([]vec.Vec3, 3)
	lj.Accumulate(s, nl, f)
	// Fixed-fixed pair contributes nothing, but fixed-mobile does.
	if f[2] == vec.Zero {
		t.Error("mobile atom near fixed atoms feels no force")
	}
	// Compare: remove the mobile atom's interactions; fixed atoms must then
	// have zero force (only their mutual pair remains, which is skipped).
	s2 := atom.NewSystem(atom.CubicBox(20, false))
	s2.AddAtom(atom.Au, vec.New(5, 5, 5), vec.Zero, 0, true)
	s2.AddAtom(atom.Au, vec.New(7, 5, 5), vec.Zero, 0, true)
	nl2 := cells.NewNeighborList(8, 0.5)
	nl2.Build(s2)
	f2 := make([]vec.Vec3, 2)
	pe := lj.Accumulate(s2, nl2, f2)
	if pe != 0 || f2[0] != vec.Zero || f2[1] != vec.Zero {
		t.Error("fixed-fixed pair not skipped")
	}
}

func TestLJRangePartitionEquivalence(t *testing.T) {
	// Summing AccumulateRange over disjoint ranges with private arrays must
	// equal a single full Accumulate — the engine's privatization+reduction.
	s := randomAtoms(3, 80, 15, 2.0)
	lj := NewLJ(s.Elements, 6)
	nl := cells.NewNeighborList(6, 0.5)
	nl.Build(s)

	full := make([]vec.Vec3, s.N())
	peFull := lj.Accumulate(s, nl, full)

	parts := [][2]int{{0, 20}, {20, 47}, {47, 80}}
	sum := make([]vec.Vec3, s.N())
	var peSum float64
	for _, p := range parts {
		priv := make([]vec.Vec3, s.N())
		peSum += lj.AccumulateRange(s, nl, p[0], p[1], priv)
		for i := range sum {
			sum[i] = sum[i].Add(priv[i])
		}
	}
	if math.Abs(peFull-peSum) > 1e-9*(1+math.Abs(peFull)) {
		t.Errorf("PE: full %v vs partitioned %v", peFull, peSum)
	}
	for i := range full {
		if !full[i].ApproxEqual(sum[i], 1e-9*(1+full[i].Norm())) {
			t.Fatalf("force %d: full %v vs partitioned %v", i, full[i], sum[i])
		}
	}
}

func chargedPair(t *testing.T) *atom.System {
	t.Helper()
	s := atom.NewSystem(atom.CubicBox(20, false))
	s.AddAtom(atom.Na, vec.New(5, 5, 5), vec.Zero, +1, false)
	s.AddAtom(atom.Cl, vec.New(8, 5, 5), vec.Zero, -1, false)
	return s
}

func TestCoulombTwoIonAnalytic(t *testing.T) {
	s := chargedPair(t)
	var c Coulomb
	f := make([]vec.Vec3, 2)
	pe := c.Accumulate(s, s.ChargedIndices(), f)
	r := 3.0
	wantPE := -units.CoulombK / r
	if math.Abs(pe-wantPE) > 1e-12 {
		t.Errorf("PE = %v, want %v", pe, wantPE)
	}
	wantF := units.CoulombK / (r * r)
	// Opposite charges attract: ion 0 pulled toward +x.
	if math.Abs(f[0].X-wantF) > 1e-12 || math.Abs(f[1].X+wantF) > 1e-12 {
		t.Errorf("forces = %v", f)
	}
	if f[0].Y != 0 || f[0].Z != 0 {
		t.Errorf("off-axis force = %v", f[0])
	}
}

func TestCoulombMatchesNumericalGradient(t *testing.T) {
	s := atom.NewSystem(atom.CubicBox(20, false))
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 8; i++ {
		q := 1.0
		if i%2 == 1 {
			q = -1
		}
		p := vec.New(2+rng.Float64()*16, 2+rng.Float64()*16, 2+rng.Float64()*16)
		s.AddAtom(atom.Na, p, vec.Zero, q, false)
	}
	var c Coulomb
	charged := s.ChargedIndices()
	f := make([]vec.Vec3, s.N())
	c.Accumulate(s, charged, f)
	energy := func(s *atom.System) float64 {
		scratch := make([]vec.Vec3, s.N())
		return c.Accumulate(s, s.ChargedIndices(), scratch)
	}
	for i := 0; i < s.N(); i++ {
		want := numGrad(s, i, energy)
		if !f[i].ApproxEqual(want, 1e-5*(1+want.Norm())) {
			t.Errorf("ion %d: analytic %v vs numeric %v", i, f[i], want)
		}
	}
}

func TestCoulombNewtonThirdLaw(t *testing.T) {
	s := atom.NewSystem(atom.CubicBox(20, false))
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 20; i++ {
		q := float64(1 + rng.Intn(2))
		if rng.Intn(2) == 0 {
			q = -q
		}
		s.AddAtom(atom.Na, vec.New(rng.Float64()*20, rng.Float64()*20, rng.Float64()*20), vec.Zero, q, false)
	}
	var c Coulomb
	f := make([]vec.Vec3, s.N())
	c.Accumulate(s, s.ChargedIndices(), f)
	var sum vec.Vec3
	for _, fi := range f {
		sum = sum.Add(fi)
	}
	if sum.Norm() > 1e-9 {
		t.Errorf("net Coulomb force = %v", sum)
	}
}

func TestCoulombRangePartitionEquivalence(t *testing.T) {
	s := atom.NewSystem(atom.CubicBox(20, false))
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 30; i++ {
		q := 1.0
		if i%2 == 0 {
			q = -1
		}
		s.AddAtom(atom.Cl, vec.New(rng.Float64()*20, rng.Float64()*20, rng.Float64()*20), vec.Zero, q, false)
	}
	var c Coulomb
	charged := s.ChargedIndices()
	full := make([]vec.Vec3, s.N())
	peFull := c.Accumulate(s, charged, full)
	sum := make([]vec.Vec3, s.N())
	var peSum float64
	for _, p := range [][2]int{{0, 10}, {10, 18}, {18, 30}} {
		priv := make([]vec.Vec3, s.N())
		peSum += c.AccumulateRange(s, charged, p[0], p[1], priv)
		for i := range sum {
			sum[i] = sum[i].Add(priv[i])
		}
	}
	if math.Abs(peFull-peSum) > 1e-9 {
		t.Errorf("PE mismatch: %v vs %v", peFull, peSum)
	}
	for i := range full {
		if !full[i].ApproxEqual(sum[i], 1e-9*(1+full[i].Norm())) {
			t.Fatalf("force %d mismatch", i)
		}
	}
}

func TestCoulombSoftening(t *testing.T) {
	s := atom.NewSystem(atom.CubicBox(10, false))
	s.AddAtom(atom.Na, vec.New(5, 5, 5), vec.Zero, 1, false)
	s.AddAtom(atom.Na, vec.New(5, 5, 5), vec.Zero, 1, false) // coincident
	const soft = 0.1
	c := Coulomb{Softening: soft}
	f := make([]vec.Vec3, 2)
	pe := c.Accumulate(s, s.ChargedIndices(), f)
	// Coincident ions sit at r = softening with no pair axis: the energy is
	// finite, K·q²/softening, and the force vanishes.
	wantPE := units.CoulombK / soft
	if math.Abs(pe-wantPE) > 1e-12*wantPE {
		t.Errorf("PE = %v, want %v", pe, wantPE)
	}
	if f[0] != vec.Zero || f[1] != vec.Zero {
		t.Errorf("forces = %v, want zero", f)
	}
}

func TestCoulombTwoIonPeriodicMinimumImage(t *testing.T) {
	// 8.5 Å apart inside a 10 Å periodic box: the interacting image of the
	// Cl⁻ is 1.5 Å to the Na⁺'s -x side, not 8.5 Å to its +x side.
	s := atom.NewSystem(atom.CubicBox(10, true))
	s.AddAtom(atom.Na, vec.New(0.5, 5, 5), vec.Zero, +1, false)
	s.AddAtom(atom.Cl, vec.New(9, 5, 5), vec.Zero, -1, false)
	var c Coulomb
	f := make([]vec.Vec3, 2)
	pe := c.Accumulate(s, s.ChargedIndices(), f)
	r := 1.5
	wantPE := -units.CoulombK / r
	if math.Abs(pe-wantPE) > 1e-12 {
		t.Errorf("PE = %v, want %v", pe, wantPE)
	}
	wantF := units.CoulombK / (r * r)
	// Opposite charges attract across the boundary: Na⁺ pulled toward -x.
	if math.Abs(f[0].X+wantF) > 1e-12 || math.Abs(f[1].X-wantF) > 1e-12 {
		t.Errorf("forces = %v, want ∓%v along x", f, wantF)
	}
	if f[0].Y != 0 || f[0].Z != 0 || f[1].Y != 0 || f[1].Z != 0 {
		t.Errorf("off-axis force = %v", f)
	}
}

func TestBondForceMatchesNumericalGradient(t *testing.T) {
	s := atom.NewSystem(atom.CubicBox(20, false))
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 6; i++ {
		s.AddAtom(atom.C, vec.New(5+rng.Float64()*8, 5+rng.Float64()*8, 5+rng.Float64()*8), vec.Zero, 0, false)
	}
	s.Bonds = []atom.Bond{
		{I: 0, J: 1, K: 20, R0: 1.5},
		{I: 1, J: 2, K: 15, R0: 1.4},
		{I: 3, J: 4, K: 25, R0: 2.0},
	}
	f := make([]vec.Vec3, s.N())
	AccumulateBondsRange(s, s.Bonds, 0, len(s.Bonds), f)
	energy := func(s *atom.System) float64 {
		scratch := make([]vec.Vec3, s.N())
		return AccumulateBondsRange(s, s.Bonds, 0, len(s.Bonds), scratch)
	}
	for i := 0; i < s.N(); i++ {
		want := numGrad(s, i, energy)
		if !f[i].ApproxEqual(want, 1e-4*(1+want.Norm())) {
			t.Errorf("atom %d: analytic %v vs numeric %v", i, f[i], want)
		}
	}
}

func TestAngleForceMatchesNumericalGradient(t *testing.T) {
	s := atom.NewSystem(atom.CubicBox(20, false))
	s.AddAtom(atom.H, vec.New(5, 5, 5), vec.Zero, 0, false)
	s.AddAtom(atom.O, vec.New(6, 5.2, 5.1), vec.Zero, 0, false)
	s.AddAtom(atom.H, vec.New(6.4, 6.1, 4.9), vec.Zero, 0, false)
	s.Angles = []atom.Angle{{I: 0, J: 1, K: 2, KTheta: 3.0, Theta0: 104.5 * math.Pi / 180}}
	f := make([]vec.Vec3, s.N())
	AccumulateAnglesRange(s, s.Angles, 0, len(s.Angles), f)
	energy := func(s *atom.System) float64 {
		scratch := make([]vec.Vec3, s.N())
		return AccumulateAnglesRange(s, s.Angles, 0, len(s.Angles), scratch)
	}
	for i := 0; i < 3; i++ {
		want := numGrad(s, i, energy)
		if !f[i].ApproxEqual(want, 1e-4*(1+want.Norm())) {
			t.Errorf("atom %d: analytic %v vs numeric %v", i, f[i], want)
		}
	}
	// Net force and net torque of an isolated angle term must vanish.
	sum := f[0].Add(f[1]).Add(f[2])
	if sum.Norm() > 1e-10 {
		t.Errorf("net angle force = %v", sum)
	}
}

func TestTorsionForceMatchesNumericalGradient(t *testing.T) {
	s := atom.NewSystem(atom.CubicBox(20, false))
	s.AddAtom(atom.C, vec.New(5, 5, 5), vec.Zero, 0, false)
	s.AddAtom(atom.C, vec.New(6.5, 5.3, 5.2), vec.Zero, 0, false)
	s.AddAtom(atom.C, vec.New(7.1, 6.7, 5.8), vec.Zero, 0, false)
	s.AddAtom(atom.C, vec.New(8.4, 6.9, 6.9), vec.Zero, 0, false)
	s.Torsions = []atom.Torsion{{I: 0, J: 1, K: 2, L: 3, V0: 2.0, N: 3, Phi0: 0.3}}
	f := make([]vec.Vec3, s.N())
	AccumulateTorsionsRange(s, s.Torsions, 0, len(s.Torsions), f)
	energy := func(s *atom.System) float64 {
		scratch := make([]vec.Vec3, s.N())
		return AccumulateTorsionsRange(s, s.Torsions, 0, len(s.Torsions), scratch)
	}
	for i := 0; i < 4; i++ {
		want := numGrad(s, i, energy)
		if !f[i].ApproxEqual(want, 1e-4*(1+want.Norm())) {
			t.Errorf("atom %d: analytic %v vs numeric %v", i, f[i], want)
		}
	}
	sum := f[0].Add(f[1]).Add(f[2]).Add(f[3])
	if sum.Norm() > 1e-10 {
		t.Errorf("net torsion force = %v", sum)
	}
}

func TestTorsionDegenerateChainSkipped(t *testing.T) {
	s := atom.NewSystem(atom.CubicBox(20, false))
	// Collinear chain: dihedral undefined.
	for i := 0; i < 4; i++ {
		s.AddAtom(atom.C, vec.New(5+float64(i), 5, 5), vec.Zero, 0, false)
	}
	s.Torsions = []atom.Torsion{{I: 0, J: 1, K: 2, L: 3, V0: 2.0, N: 3, Phi0: 0}}
	f := make([]vec.Vec3, 4)
	pe := AccumulateTorsionsRange(s, s.Torsions, 0, 1, f)
	if pe != 0 {
		t.Errorf("degenerate torsion PE = %v", pe)
	}
	for _, fi := range f {
		if fi != vec.Zero {
			t.Error("degenerate torsion produced forces")
		}
	}
}

func TestAngleCollinearSkipped(t *testing.T) {
	s := atom.NewSystem(atom.CubicBox(20, false))
	s.AddAtom(atom.C, vec.New(5, 5, 5), vec.Zero, 0, false)
	s.AddAtom(atom.C, vec.New(6, 5, 5), vec.Zero, 0, false)
	s.AddAtom(atom.C, vec.New(7, 5, 5), vec.Zero, 0, false)
	s.Angles = []atom.Angle{{I: 0, J: 1, K: 2, KTheta: 3, Theta0: 2}}
	f := make([]vec.Vec3, 3)
	AccumulateAnglesRange(s, s.Angles, 0, 1, f)
	for _, fi := range f {
		if fi != vec.Zero {
			t.Error("collinear angle produced forces")
		}
	}
}

func TestBondedEnergyAggregates(t *testing.T) {
	s := atom.NewSystem(atom.CubicBox(20, false))
	for i := 0; i < 4; i++ {
		s.AddAtom(atom.C, vec.New(5+1.3*float64(i), 5+0.4*float64(i%2), 5), vec.Zero, 0, false)
	}
	s.Bonds = []atom.Bond{{I: 0, J: 1, K: 20, R0: 1.0}}
	s.Angles = []atom.Angle{{I: 0, J: 1, K: 2, KTheta: 3, Theta0: 2}}
	s.Torsions = []atom.Torsion{{I: 0, J: 1, K: 2, L: 3, V0: 1, N: 1, Phi0: 0}}
	f := make([]vec.Vec3, 4)
	got := AccumulateBonded(s, f)
	want := BondedEnergy(s)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("AccumulateBonded %v != BondedEnergy %v", got, want)
	}
	if got == 0 {
		t.Error("expected non-zero bonded energy")
	}
}

func TestFieldForces(t *testing.T) {
	s := atom.NewSystem(atom.CubicBox(10, false))
	s.AddAtom(atom.Na, vec.New(5, 5, 5), vec.Zero, 2, false)
	s.AddAtom(atom.Ar, vec.New(3, 3, 3), vec.Zero, 0, false)
	fl := Field{E: vec.New(0.5, 0, 0)}
	f := make([]vec.Vec3, 2)
	fl.AccumulateRange(s, 0, 2, f)
	if !f[0].ApproxEqual(vec.New(1.0, 0, 0), 1e-12) {
		t.Errorf("E-field force on q=2: %v", f[0])
	}
	if f[1] != vec.Zero {
		t.Error("neutral atom felt E field")
	}
}

func TestFieldGravity(t *testing.T) {
	s := atom.NewSystem(atom.CubicBox(10, false))
	s.AddAtom(atom.Au, vec.New(5, 5, 5), vec.Zero, 0, false)
	g := vec.New(0, -1e-4, 0)
	fl := Field{G: g}
	f := make([]vec.Vec3, 1)
	fl.AccumulateRange(s, 0, 1, f)
	// Resulting acceleration must equal G independent of mass.
	a := units.Acceleration(f[0].Y, s.Mass[0])
	if math.Abs(a-g.Y) > 1e-15 {
		t.Errorf("gravity acceleration = %v, want %v", a, g.Y)
	}
	if !fl.IsZero() == false && fl.IsZero() {
		t.Error("non-zero field reported zero")
	}
	if (Field{}).IsZero() == false {
		t.Error("zero field reported non-zero")
	}
}

func TestPairEnergyBeyondCutoff(t *testing.T) {
	lj := NewLJ(atom.Builtin[:], 5)
	if lj.PairEnergy(atom.Ar, atom.Ar, 26) != 0 {
		t.Error("PairEnergy beyond cutoff must be 0")
	}
	if lj.PairEnergy(atom.Ar, atom.Ar, 10) == 0 {
		t.Error("PairEnergy inside cutoff must be non-zero")
	}
}

func TestNewLJPanicsOnBadCutoff(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewLJ must panic on non-positive cutoff")
		}
	}()
	NewLJ(atom.Builtin[:], -1)
}

func TestMorseForceMatchesNumericalGradient(t *testing.T) {
	s := atom.NewSystem(atom.CubicBox(20, false))
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 6; i++ {
		s.AddAtom(atom.O, vec.New(5+rng.Float64()*8, 5+rng.Float64()*8, 5+rng.Float64()*8), vec.Zero, 0, false)
	}
	s.Morses = []atom.Morse{
		{I: 0, J: 1, D: 4.5, A: 2.0, R0: 1.2},
		{I: 2, J: 3, D: 2.0, A: 1.5, R0: 2.0},
		{I: 4, J: 5, D: 1.0, A: 1.0, R0: 3.0},
	}
	f := make([]vec.Vec3, s.N())
	AccumulateMorseRange(s, s.Morses, 0, len(s.Morses), f)
	energy := func(s *atom.System) float64 {
		scratch := make([]vec.Vec3, s.N())
		return AccumulateMorseRange(s, s.Morses, 0, len(s.Morses), scratch)
	}
	for i := 0; i < s.N(); i++ {
		want := numGrad(s, i, energy)
		if !f[i].ApproxEqual(want, 1e-4*(1+want.Norm())) {
			t.Errorf("atom %d: analytic %v vs numeric %v", i, f[i], want)
		}
	}
	// Newton's third law per bond.
	var sum vec.Vec3
	for _, fi := range f {
		sum = sum.Add(fi)
	}
	if sum.Norm() > 1e-10 {
		t.Errorf("net Morse force = %v", sum)
	}
}

func TestMorseProperties(t *testing.T) {
	s := atom.NewSystem(atom.CubicBox(20, false))
	s.AddAtom(atom.O, vec.New(5, 5, 5), vec.Zero, 0, false)
	s.AddAtom(atom.O, vec.New(5, 5, 6.2), vec.Zero, 0, false) // at R0
	s.Morses = []atom.Morse{{I: 0, J: 1, D: 5.0, A: 2.0, R0: 1.2}}
	f := make([]vec.Vec3, 2)
	pe := AccumulateMorseRange(s, s.Morses, 0, 1, f)
	if math.Abs(pe) > 1e-12 || f[0].Norm() > 1e-12 {
		t.Errorf("Morse at equilibrium: pe=%v f=%v", pe, f[0])
	}
	// Dissociation limit: energy → D, force → 0.
	s.Pos[1] = vec.New(5, 5, 17)
	f[0], f[1] = vec.Zero, vec.Zero
	pe = AccumulateMorseRange(s, s.Morses, 0, 1, f)
	if math.Abs(pe-5.0) > 1e-6 {
		t.Errorf("dissociated Morse energy %v, want ≈ D", pe)
	}
	if f[0].Norm() > 1e-6 {
		t.Errorf("dissociated Morse force %v", f[0])
	}
}
