package verify

import (
	"fmt"
	"math"
	"math/rand"

	"mw/internal/atom"
	"mw/internal/cells"
	"mw/internal/core"
	"mw/internal/vec"
)

// EnergyDrift runs an NVE simulation of base under cfg (thermostat stripped)
// and returns the total-energy drift relative to the kinetic-energy scale,
// the gate the UPC MD study (arXiv:1603.03888) uses as its correctness
// criterion. Elastic walls and fixed atoms both conserve energy, so the
// bound applies to every paper workload.
func EnergyDrift(base *atom.System, cfg core.Config, steps int) (float64, error) {
	cfg.Thermostat = nil
	sim, err := core.New(base.Clone(), cfg)
	if err != nil {
		return 0, err
	}
	defer sim.Close()
	e0 := sim.TotalEnergy()
	scale := sim.Sys.KineticEnergy() + 1e-9
	sim.Run(steps)
	return math.Abs(sim.TotalEnergy()-e0) / scale, nil
}

// MomentumDrift runs base under cfg and returns the growth of the total
// linear momentum of the mobile atoms in amu·Å/fs. Momentum is conserved
// only while nothing external acts: callers must pick systems without wall
// contact, fixed atoms or thermostats.
func MomentumDrift(base *atom.System, cfg core.Config, steps int) (float64, error) {
	cfg.Thermostat = nil
	sim, err := core.New(base.Clone(), cfg)
	if err != nil {
		return 0, err
	}
	defer sim.Close()
	p0 := sim.Sys.Momentum()
	sim.Run(steps)
	return sim.Sys.Momentum().Sub(p0).Norm(), nil
}

// RandomSystem builds a seeded random test system: n atoms on a jittered
// lattice (no overlapping cores), a neutral mix of Na⁺/Cl⁻ ions among
// neutral carbons, and a short bonded chain (bonds, angles, a torsion)
// parameterized to its built geometry. It exercises every force family the
// engine has.
func RandomSystem(rng *rand.Rand, n int, periodic bool) *atom.System {
	const spacing = 3.5
	side := 1
	for side*side*side < n {
		side++
	}
	l := float64(side)*spacing + 4
	s := atom.NewSystem(atom.CubicBox(l, periodic))
	count := 0
	for x := 0; x < side && count < n; x++ {
		for y := 0; y < side && count < n; y++ {
			for z := 0; z < side && count < n; z++ {
				p := vec.New(
					2+float64(x)*spacing+rng.Float64()*0.6,
					2+float64(y)*spacing+rng.Float64()*0.6,
					2+float64(z)*spacing+rng.Float64()*0.6,
				)
				// A neutral ion pair every four atoms, carbons between.
				switch count % 4 {
				case 0:
					s.AddAtom(atom.Na, p, vec.Zero, +1, false)
				case 1:
					s.AddAtom(atom.Cl, p, vec.Zero, -1, false)
				default:
					s.AddAtom(atom.C, p, vec.Zero, 0, false)
				}
				count++
			}
		}
	}
	// Bonded chain over the first few atoms, at mechanical equilibrium so
	// the random geometry is a valid starting point.
	chain := 6
	if chain > n {
		chain = n
	}
	for i := 0; i+1 < chain; i++ {
		r0 := s.Box.MinImage(s.Pos[i+1].Sub(s.Pos[i])).Norm()
		s.Bonds = append(s.Bonds, atom.Bond{I: int32(i), J: int32(i + 1), K: 6, R0: r0})
	}
	for i := 0; i+2 < chain; i++ {
		a := atom.Angle{I: int32(i), J: int32(i + 1), K: int32(i + 2), KTheta: 1.5}
		s.Angles = append(s.Angles, a)
	}
	if chain >= 4 {
		s.Torsions = append(s.Torsions, atom.Torsion{I: 0, J: 1, K: 2, L: 3, V0: 0.4, N: 3})
	}
	s.BuildExclusions()
	s.Thermalize(80, rng)
	return s
}

// NetForce runs one engine force evaluation of base under cfg and returns
// the magnitude of the total force vector alongside the mean per-atom force
// magnitude. With no external field every engine force is an
// action–reaction pair (or a pure-internal angle/torsion gradient), so the
// net must vanish to rounding — Newton's third law in aggregate.
func NetForce(base *atom.System, cfg core.Config) (net, scale float64, err error) {
	sim, err := core.New(base.Clone(), cfg)
	if err != nil {
		return 0, 0, err
	}
	defer sim.Close()
	var sum vec.Vec3
	for _, f := range sim.Sys.Force {
		sum = sum.Add(f)
		scale += f.Norm()
	}
	n := len(sim.Sys.Force)
	if n > 0 {
		scale /= float64(n)
	}
	return sum.Norm(), scale, nil
}

// PairAntisymmetry places two atoms at a random separation, evaluates the
// engine's forces, and returns the relative antisymmetry defect
// |f_i + f_j| / max(|f_i|, ε). Exercised per force family by the choice of
// atoms: LJ (two argons), Coulomb (an ion pair), bond and Morse (bonded
// pairs).
type PairCase struct {
	Name string
	// Build places two interacting atoms at separation r into a fresh
	// system.
	Build func(r float64) *atom.System
}

// PairCases returns one randomized two-body case per pairwise force family.
func PairCases() []PairCase {
	mk := func(el int16, q1, q2 float64) func(r float64) *atom.System {
		return func(r float64) *atom.System {
			s := atom.NewSystem(atom.CubicBox(30, false))
			s.AddAtom(el, vec.New(15-r/2, 15, 15), vec.Zero, q1, false)
			s.AddAtom(el, vec.New(15+r/2, 15, 15), vec.Zero, q2, false)
			return s
		}
	}
	return []PairCase{
		{"lj", mk(atom.Ar, 0, 0)},
		{"coulomb", func(r float64) *atom.System {
			s := atom.NewSystem(atom.CubicBox(30, false))
			s.AddAtom(atom.Na, vec.New(15-r/2, 15, 15), vec.Zero, +1, false)
			s.AddAtom(atom.Cl, vec.New(15+r/2, 15, 15), vec.Zero, -1, false)
			return s
		}},
		{"bond", func(r float64) *atom.System {
			s := mk(atom.C, 0, 0)(r)
			s.Bonds = append(s.Bonds, atom.Bond{I: 0, J: 1, K: 8, R0: r * 0.8})
			s.BuildExclusions()
			return s
		}},
		{"morse", func(r float64) *atom.System {
			s := mk(atom.C, 0, 0)(r)
			s.Morses = append(s.Morses, atom.Morse{I: 0, J: 1, D: 2, A: 1.5, R0: r * 0.9})
			s.BuildExclusions()
			return s
		}},
	}
}

// Antisymmetry evaluates the case at separation r and returns the relative
// defect |f0 + f1| / (|f0| + ε).
func Antisymmetry(pc PairCase, r float64, cfg core.Config) (float64, error) {
	s := pc.Build(r)
	sim, err := core.New(s, cfg)
	if err != nil {
		return 0, err
	}
	defer sim.Close()
	f0, f1 := sim.Sys.Force[0], sim.Sys.Force[1]
	return f0.Add(f1).Norm() / (f0.Norm() + 1e-12), nil
}

// pairKey orders an (i, j) pair canonically.
func pairKey(i, j int32) [2]int32 {
	if i > j {
		i, j = j, i
	}
	return [2]int32{i, j}
}

// BrutePairs enumerates every unordered interacting atom pair of s within
// rng by the O(N²) definition the cell list must reproduce: minimum-image
// center distance strictly below rng, not fixed–fixed, not excluded.
func BrutePairs(s *atom.System, rng float64) map[[2]int32]struct{} {
	out := make(map[[2]int32]struct{})
	r2 := rng * rng
	n := s.N()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if s.Fixed[i] && s.Fixed[j] || s.Excl.Excluded(int32(i), int32(j)) {
				continue
			}
			if s.Box.MinImage(s.Pos[j].Sub(s.Pos[i])).Norm2() < r2 {
				out[pairKey(int32(i), int32(j))] = struct{}{}
			}
		}
	}
	return out
}

// CellPairs enumerates the pairs the linked-cell grid produces when the
// engine builds per-chunk half range lists of the given chunk size, checking
// that every pair is stored exactly once, under its lower-indexed atom.
func CellPairs(s *atom.System, rng float64, chunk int) (map[[2]int32]struct{}, error) {
	grid := cells.NewGrid(s.Box, rng)
	grid.Assign(s)
	out := make(map[[2]int32]struct{})
	n := s.N()
	var rl cells.RangeList
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		grid.BuildRange(s, rng, lo, hi, &rl)
		for i := lo; i < hi; i++ {
			a := rl.Offsets[i-lo]
			b := rl.Offsets[i-lo+1]
			for _, j := range rl.Neighbors[a:b] {
				if j <= int32(i) {
					return nil, fmt.Errorf("half list stores %d-%d with j ≤ i", i, j)
				}
				p := pairKey(int32(i), j)
				if _, dup := out[p]; dup {
					return nil, fmt.Errorf("pair %d-%d stored twice", p[0], p[1])
				}
				out[p] = struct{}{}
			}
		}
	}
	return out, nil
}

// CheckNeighborCompleteness asserts that the cell-list pair set equals the
// brute-force pair set for s at the given interaction range: no interacting
// pair within range may be missing (completeness), and no listed pair may be
// out of range or non-interacting (validity: the sets must be identical).
func CheckNeighborCompleteness(s *atom.System, rng float64, chunk int) error {
	brute := BrutePairs(s, rng)
	got, err := CellPairs(s, rng, chunk)
	if err != nil {
		return err
	}
	for p := range brute {
		if _, ok := got[p]; !ok {
			return fmt.Errorf("pair %d-%d within %g Å missing from cell list", p[0], p[1], rng)
		}
	}
	for p := range got {
		if _, ok := brute[p]; !ok {
			return fmt.Errorf("cell list pair %d-%d is outside range %g Å or does not interact", p[0], p[1], rng)
		}
	}
	return nil
}
