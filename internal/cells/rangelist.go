package cells

import (
	"mw/internal/atom"
	"mw/internal/vec"
)

// RangeList is a half neighbor list covering only atoms [Lo, Hi). The
// parallel engine gives every force-phase chunk its own RangeList so that a
// worker can rebuild and immediately consume its chunk's neighbors — the
// paper's fused phases 3+4 ("which we fused into a single loop to improve
// data locality and reduce loop overhead", §II-A) — without synchronizing on
// a global list.
type RangeList struct {
	Lo, Hi    int
	Offsets   []int32 // length Hi-Lo+1
	Neighbors []int32
}

// keepInteracting is the one place the lists decide which pairs interact:
// it drops from nb[from:], atom i's just-appended neighbors, every pair of
// two fixed atoms (paper §III) or excluded by topology, keeping list order,
// so no kernel needs per-pair checks. A mobile atom of a system without
// exclusions (all of Al-1000 and salt) returns at once.
//
//mw:hotpath
func keepInteracting(s *atom.System, i int, nb []int32, from int) []int32 {
	fixed := s.Fixed
	if uint(i) >= uint(len(fixed)) || uint(from) > uint(len(nb)) {
		return nb // bounds-check elimination guard; builders never hit it
	}
	fixedI := fixed[i]
	if !fixedI && s.Excl == nil {
		return nb
	}
	kept := nb[:from]
	for _, j := range nb[from:] {
		if jj := int(j); fixedI && uint(jj) < uint(len(fixed)) && fixed[jj] {
			continue
		}
		if s.Excl.Excluded(int32(i), j) {
			continue
		}
		kept = append(kept, j) // in place: kept never outgrows nb
	}
	return kept
}

// BuildRange fills rl with the interacting neighbors (j > i, within rng) of
// atoms [lo, hi) using the already-Assigned grid. Storage is reused across
// calls.
//
//mw:hotpath
func (g *Grid) BuildRange(s *atom.System, rng float64, lo, hi int, rl *RangeList) {
	rl.Lo, rl.Hi = lo, hi
	n := hi - lo
	if cap(rl.Offsets) < n+1 {
		rl.Offsets = make([]int32, n+1)
	}
	rl.Offsets = rl.Offsets[:n+1]
	rl.Neighbors = rl.Neighbors[:0]
	for i := lo; i < hi; i++ {
		start := len(rl.Neighbors)
		rl.Offsets[i-lo] = int32(start)
		rl.Neighbors = keepInteracting(s, i, g.AppendNeighbors(s, i, rng, rl.Neighbors), start)
	}
	rl.Offsets[n] = int32(len(rl.Neighbors))
}

// Of returns the neighbor slice of atom i, which must lie in [Lo, Hi).
// An index outside the range, or a corrupt offset table, yields an empty
// slice. The explicit guards are bounds-check elimination: they hand the
// prove pass the facts it needs to drop every implicit check, so the inlined
// body contributes no panic edges to the kernels' pair loops (`mwlint -bce`
// keeps it that way).
//
//mw:hotpath
func (rl *RangeList) Of(i int) []int32 {
	k := i - rl.Lo
	offs := rl.Offsets
	if k < 0 || k >= len(offs) {
		return nil
	}
	seg := offs[k:]
	if len(seg) < 2 {
		return nil
	}
	a, b := int(seg[0]), int(seg[1])
	nb := rl.Neighbors
	if a < 0 || b < a || b > len(nb) {
		return nil
	}
	return nb[a:b]
}

// Len returns the number of stored pairs.
func (rl *RangeList) Len() int { return len(rl.Neighbors) }

// MaxDisplacement2 returns the largest squared displacement of atoms
// [lo, hi) from their reference positions — the per-chunk half of the
// neighbor-list validity check (phase 2).
//
//mw:hotpath
func MaxDisplacement2(s *atom.System, ref []vec.Vec3, lo, hi int) float64 {
	var mx float64
	for i := lo; i < hi; i++ {
		if d := s.Box.MinImage(s.Pos[i].Sub(ref[i])).Norm2(); d > mx {
			mx = d
		}
	}
	return mx
}
