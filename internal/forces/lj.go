// Package forces implements the three interatomic force families computed
// in phase 4 of the Molecular Workbench timestep (paper §II-B):
//
//   - Lennard-Jones between non-bonded atoms within a cutoff, driven by the
//     linked-cell neighbor lists (the dominant force in most repository
//     simulations, e.g. Al-1000);
//   - Coulombic forces between every pair of charged particles regardless of
//     distance (dominant in the salt benchmark);
//   - bonded forces — radial, angular and torsional terms involving up to
//     four atoms with irregular indexing into the atom array (dominant in
//     the nanocar benchmark);
//
// plus uniform external fields. All Accumulate functions add forces into a
// caller-provided array, which is how the engine privatizes force
// accumulation per worker thread before the reduction phase, and return the
// potential energy of the accumulated terms.
package forces

import (
	"math"

	"mw/internal/atom"
	"mw/internal/cells"
	"mw/internal/vec"
)

// LJ computes shifted Lennard-Jones interactions with per-element-pair
// parameters combined by Lorentz-Berthelot rules. The potential is shifted
// so that V(cutoff) = 0, keeping energy continuous across the cutoff.
type LJ struct {
	Cutoff float64

	nelem  int
	sigma2 []float64 // σ², indexed [a*nelem+b]
	eps    []float64 // ε
	shift  []float64 // V_unshifted(cutoff)

	// Cluster-kernel tables (lj_cluster.go). The A/B form of the potential
	// — A = 4εσ¹², B = 4εσ⁶, u = 1/r⁶ — turns the pair energy into
	// A·u² − B·u − shift and the force scale into (12A·u − 6B)·u/r²,
	// replacing one of the two divisions of the σ²/r² form with FMA-friendly
	// polynomial evaluation.
	cA, cB     []float64 // A, B per pair index
	cA12, cB6  []float64 // 12A, 6B per pair index
	simdParams []float64 // (nelem²+1)×16 block of 4-lane broadcast rows
}

// NewLJ precomputes the pair table for the element set.
func NewLJ(elements []atom.Element, cutoff float64) *LJ {
	if cutoff <= 0 {
		panic("forces: non-positive LJ cutoff")
	}
	n := len(elements)
	lj := &LJ{
		Cutoff: cutoff,
		nelem:  n,
		sigma2: make([]float64, n*n),
		eps:    make([]float64, n*n),
		shift:  make([]float64, n*n),
	}
	c2 := cutoff * cutoff
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			sigma, eps := atom.MixLJ(elements[a], elements[b])
			s2 := sigma * sigma
			lj.sigma2[a*n+b] = s2
			lj.eps[a*n+b] = eps
			sr2 := s2 / c2
			sr6 := sr2 * sr2 * sr2
			lj.shift[a*n+b] = 4 * eps * (sr6*sr6 - sr6)
		}
	}
	// Cluster-kernel tables. The SIMD parameter block holds one 128-byte
	// row per pair index k — four broadcast lanes each of 12A, −6B, B/2 and
	// shift — plus an all-zero sentinel row at index nelem² for mixed-element
	// entries: the vector kernel computes exact zeros for those and a scalar
	// pass recomputes them (see AccumulateClusterListSIMD).
	nn := n * n
	lj.cA = make([]float64, nn)
	lj.cB = make([]float64, nn)
	lj.cA12 = make([]float64, nn)
	lj.cB6 = make([]float64, nn)
	lj.simdParams = make([]float64, (nn+1)*16)
	for k := 0; k < nn; k++ {
		s2 := lj.sigma2[k]
		s6 := s2 * s2 * s2
		a := 4 * lj.eps[k] * s6 * s6
		b := 4 * lj.eps[k] * s6
		lj.cA[k], lj.cB[k] = a, b
		lj.cA12[k], lj.cB6[k] = 12*a, 6*b
		row := lj.simdParams[k*16 : k*16+16]
		for l := 0; l < 4; l++ {
			row[l] = 12 * a
			row[4+l] = -6 * b
			row[8+l] = b / 2
			row[12+l] = lj.shift[k]
		}
	}
	return lj
}

// AccumulateRange adds LJ forces for all half pairs owned by atoms
// lo ≤ i < hi (their full neighbor slices) into f and returns the potential
// energy of those pairs. Because each pair is owned by exactly one atom, two
// workers never both write the same pair — but they may write the same f[j]
// entry, which is why the engine gives every worker a private f.
//
// Pairs of two fixed atoms are skipped: the nanocar's immovable gold
// platform atoms do not interact with one another (paper §III), which is
// what lowers that benchmark's effective atom count; excluded pairs are
// skipped too. The range-list builders drop both at build time instead, so
// tests use this per-pair-checking kernel as their independent oracle.
//
//mw:hotpath
func (lj *LJ) AccumulateRange(s *atom.System, nl *cells.NeighborList, lo, hi int, f []vec.Vec3) float64 {
	var pe float64
	c2 := lj.Cutoff * lj.Cutoff
	box := s.Box
	// BCE preamble (every kernel below repeats it): reslice the per-atom
	// arrays to the force array's length and hoist the pair tables at a
	// common length, then guard the range once. Together with the uint
	// comparisons inside the pair loop this hands the prove pass everything
	// it needs to delete the implicit bounds checks — and their panic calls —
	// from the pair loop; `mwlint -bce` holds the loops check-free.
	n := len(f)
	pos, elem, fixed := s.Pos[:n], s.Elem[:n], s.Fixed[:n]
	sig2 := lj.sigma2
	m := len(sig2)
	epsT, shiftT := lj.eps[:m], lj.shift[:m]
	if lo < 0 || hi > n {
		panic("forces: LJ range outside force array")
	}
	for i := lo; i < hi; i++ {
		pi := pos[i]
		ei := int(elem[i])
		fi := f[i]
		fixedI := fixed[i]
		for _, j := range nl.Of(i) {
			jj := int(j)
			if uint(jj) >= uint(n) {
				continue // corrupt neighbor entry; valid lists never hit this
			}
			if fixedI && fixed[jj] {
				continue
			}
			if s.Excl.Excluded(int32(i), j) {
				continue
			}
			d := box.MinImage(pos[jj].Sub(pi))
			r2 := d.Norm2()
			if r2 >= c2 || r2 == 0 {
				continue
			}
			k := ei*lj.nelem + int(elem[jj])
			if uint(k) >= uint(m) {
				continue // element id outside the pair table
			}
			sr2 := sig2[k] / r2
			sr6 := sr2 * sr2 * sr2
			sr12 := sr6 * sr6
			eps := epsT[k]
			pe += 4*eps*(sr12-sr6) - shiftT[k]
			// dV/dr · 1/r, applied along d (j-i direction).
			fs := 24 * eps * (2*sr12 - sr6) / r2
			fi = fi.AddScaled(-fs, d)
			f[jj] = f[jj].AddScaled(fs, d)
		}
		f[i] = fi
	}
	return pe
}

// Accumulate adds LJ forces for every pair in the list.
func (lj *LJ) Accumulate(s *atom.System, nl *cells.NeighborList, f []vec.Vec3) float64 {
	return lj.AccumulateRange(s, nl, 0, s.N(), f)
}

// AccumulateRangeList adds LJ forces for all pairs held by a per-chunk
// RangeList into f and returns their potential energy. This is the fused
// phase-3+4 fast path of the parallel engine. The builder has already
// dropped excluded and fixed–fixed pairs.
//
//mw:hotpath
func (lj *LJ) AccumulateRangeList(s *atom.System, rl *cells.RangeList, f []vec.Vec3) float64 {
	var pe float64
	c2 := lj.Cutoff * lj.Cutoff
	box := s.Box
	n := len(f)
	pos, elem := s.Pos[:n], s.Elem[:n]
	sig2 := lj.sigma2
	m := len(sig2)
	epsT, shiftT := lj.eps[:m], lj.shift[:m]
	lo, hi := rl.Lo, rl.Hi
	if lo < 0 || hi > n {
		panic("forces: LJ range outside force array")
	}
	for i := lo; i < hi; i++ {
		pi := pos[i]
		ei := int(elem[i])
		fi := f[i]
		for _, j := range rl.Of(i) {
			jj := int(j)
			if uint(jj) >= uint(n) {
				continue // corrupt neighbor entry; valid lists never hit this
			}
			d := box.MinImage(pos[jj].Sub(pi))
			r2 := d.Norm2()
			if r2 >= c2 || r2 == 0 {
				continue
			}
			k := ei*lj.nelem + int(elem[jj])
			if uint(k) >= uint(m) {
				continue // element id outside the pair table
			}
			sr2 := sig2[k] / r2
			sr6 := sr2 * sr2 * sr2
			sr12 := sr6 * sr6
			eps := epsT[k]
			pe += 4*eps*(sr12-sr6) - shiftT[k]
			fs := 24 * eps * (2*sr12 - sr6) / r2
			fi = fi.AddScaled(-fs, d)
			f[jj] = f[jj].AddScaled(fs, d)
		}
		f[i] = fi
	}
	return pe
}

// AccumulateRangeListFast is the cell-ordered hot-path kernel: the two
// per-pair divisions fused into one reciprocal (sr2 and fs both multiply by
// 1/r2) and the minimum-image wrap inlined. The reciprocal changes
// floating-point association at the ulp level, so unlike
// AccumulateRangeList this kernel is NOT bitwise-identical to the reference
// path — the engine selects it only when the reorder hot path is explicitly
// enabled (Cfg.Reorder), where the differential matrix bounds the
// deviation, never on the default path that golden trajectories pin. It
// takes any list the builders produce.
//
//mw:hotpath
func (lj *LJ) AccumulateRangeListFast(s *atom.System, rl *cells.RangeList, f []vec.Vec3) float64 {
	var pe float64
	c2 := lj.Cutoff * lj.Cutoff
	// The displacement is computed on scalars with the minimum-image wrap
	// inlined behind one perfectly-predicted branch: Box.MinImage is a real
	// (non-inlined) call, and at ~30 pairs per atom the call overhead is a
	// measurable slice of the whole kernel.
	periodic := s.Box.Periodic
	lx, ly, lz := s.Box.L.X, s.Box.L.Y, s.Box.L.Z
	n := len(f)
	pos, elem := s.Pos[:n], s.Elem[:n]
	sig2 := lj.sigma2
	m := len(sig2)
	epsT, shiftT := lj.eps[:m], lj.shift[:m]
	lo, hi := rl.Lo, rl.Hi
	if lo < 0 || hi > n {
		panic("forces: LJ range outside force array")
	}
	for i := lo; i < hi; i++ {
		pi := pos[i]
		ei := int(elem[i])
		fix, fiy, fiz := f[i].X, f[i].Y, f[i].Z
		for _, j := range rl.Of(i) {
			jj := int(j)
			if uint(jj) >= uint(n) {
				continue // corrupt neighbor entry; valid lists never hit this
			}
			q := pos[jj]
			dx, dy, dz := q.X-pi.X, q.Y-pi.Y, q.Z-pi.Z
			if periodic {
				dx -= lx * math.Round(dx/lx)
				dy -= ly * math.Round(dy/ly)
				dz -= lz * math.Round(dz/lz)
			}
			r2 := dx*dx + dy*dy + dz*dz
			if r2 >= c2 || r2 == 0 {
				continue
			}
			inv := 1 / r2
			k := ei*lj.nelem + int(elem[jj])
			if uint(k) >= uint(m) {
				continue // element id outside the pair table
			}
			sr2 := sig2[k] * inv
			sr6 := sr2 * sr2 * sr2
			sr12 := sr6 * sr6
			eps := epsT[k]
			pe += 4*eps*(sr12-sr6) - shiftT[k]
			fs := 24 * eps * (2*sr12 - sr6) * inv
			fix -= fs * dx
			fiy -= fs * dy
			fiz -= fs * dz
			f[jj].X += fs * dx
			f[jj].Y += fs * dy
			f[jj].Z += fs * dz
		}
		f[i] = vec.Vec3{X: fix, Y: fiy, Z: fiz}
	}
	return pe
}

// PairEnergy returns the shifted LJ pair energy for elements a, b at squared
// distance r2 (0 beyond the cutoff); used by tests and diagnostics.
func (lj *LJ) PairEnergy(a, b int16, r2 float64) float64 {
	if r2 >= lj.Cutoff*lj.Cutoff {
		return 0
	}
	k := int(a)*lj.nelem + int(b)
	sr2 := lj.sigma2[k] / r2
	sr6 := sr2 * sr2 * sr2
	return 4*lj.eps[k]*(sr6*sr6-sr6) - lj.shift[k]
}
