package forces

import (
	"math"

	"mw/internal/atom"
	"mw/internal/units"
	"mw/internal/vec"
)

// Coulomb computes direct pairwise electrostatics between every pair of
// charged particles, regardless of distance — exactly the O(N²) algorithm
// Molecular Workbench uses (the paper notes particle-mesh Ewald as future
// work; see package ewald for that extension). A small softening length
// avoids the singularity if ions overlap during equilibration.
type Coulomb struct {
	// Softening is added in quadrature to r; zero gives the bare 1/r².
	Softening float64
}

// AccumulateRange adds Coulomb forces for all half pairs (ci, cj), cj > ci,
// where ci indexes positions lo ≤ ci < hi of the charged list, into f, and
// returns their potential energy. The charged list is the System's
// ChargedIndices(); passing it in lets the engine compute it once per run.
//
//mw:hotpath
func (c Coulomb) AccumulateRange(s *atom.System, charged []int32, lo, hi int, f []vec.Vec3) float64 {
	var pe float64
	soft2 := c.Softening * c.Softening
	periodic := s.Box.Periodic
	lx, ly, lz := s.Box.L.X, s.Box.L.Y, s.Box.L.Z
	n := len(f)
	pos, q := s.Pos[:n], s.Charge[:n]
	for ci := lo; ci < hi; ci++ {
		i := charged[ci]
		pi := pos[i]
		kqi := units.CoulombK * q[i] // K*qi*qj rounds left to right: exact
		fix, fiy, fiz := f[i].X, f[i].Y, f[i].Z
		for _, cj := range charged[ci+1:] {
			// One guard on the widened index clears pos[j], q[j] and f[j].
			j := int(cj)
			if uint(j) >= uint(n) {
				continue
			}
			pj := pos[j]
			dx, dy, dz := pj.X-pi.X, pj.Y-pi.Y, pj.Z-pi.Z
			if periodic {
				dx -= lx * math.Round(dx/lx)
				dy -= ly * math.Round(dy/ly)
				dz -= lz * math.Round(dz/lz)
			}
			r2 := dx*dx + dy*dy + dz*dz + soft2
			if r2 == 0 {
				continue
			}
			r := math.Sqrt(r2)
			e := kqi * q[j] / r
			pe += e
			// F = k q1 q2 / r² along the pair axis; repulsive for like signs.
			fs := e / r2
			fix += -fs * dx
			fiy += -fs * dy
			fiz += -fs * dz
			f[j].X += fs * dx
			f[j].Y += fs * dy
			f[j].Z += fs * dz
		}
		f[i] = vec.Vec3{X: fix, Y: fiy, Z: fiz}
	}
	return pe
}

// Accumulate adds Coulomb forces for every charged pair.
func (c Coulomb) Accumulate(s *atom.System, charged []int32, f []vec.Vec3) float64 {
	return c.AccumulateRange(s, charged, 0, len(charged), f)
}

// Field is a uniform external field: a constant electric field E (eV/(Å·e))
// acting on charges and a constant acceleration field G (applied as force
// m·G/ForceToAccel so that every atom accelerates at G, like gravity).
type Field struct {
	E vec.Vec3 // force per unit charge
	G vec.Vec3 // acceleration, Å/fs²
}

// AccumulateRange adds field forces for atoms lo ≤ i < hi. Potential energy
// of uniform fields is gauge-dependent; it is not accumulated.
//
//mw:hotpath
func (fl Field) AccumulateRange(s *atom.System, lo, hi int, f []vec.Vec3) {
	for i := lo; i < hi; i++ {
		fi := f[i]
		if q := s.Charge[i]; q != 0 {
			fi = fi.AddScaled(q, fl.E)
		}
		if fl.G != vec.Zero {
			// F = m·G / ForceToAccel so the resulting acceleration is G.
			fi = fi.AddScaled(s.Mass[i]/units.ForceToAccel, fl.G)
		}
		f[i] = fi
	}
}

// IsZero reports whether the field exerts no force.
//
//mw:hotpath
func (fl Field) IsZero() bool { return fl.E == vec.Zero && fl.G == vec.Zero }
