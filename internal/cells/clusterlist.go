package cells

import "mw/internal/atom"

// ClusterSize is M in the MxN cluster-pair scheme: atoms are grouped into
// clusters of four consecutive indices, so a Morton/cell reorder
// (atom.Reorderer) makes clusters spatially compact. Four doubles fill one
// AVX2 lane group, which is why M = N = 4 here (see EXPERIMENTS.md).
const ClusterSize = 4

// clusterPad is the coordinate used for the tail padding lanes of the last
// cluster. It must be finite: padded lanes are masked out of every
// interaction, but a SIMD kernel still computes dx against them, and an
// infinite coordinate would turn the masked 0·dx product into a NaN that
// poisons the lane accumulators.
const clusterPad = 1e30

// ClusterEntry is one cluster pair (ci → CJ) with a 16-bit interaction
// mask: bit a*ClusterSize+b covers the pair (i, j) = (ci*4+a, CJ*4+b).
// Only pairs with j > i are masked in, so each interaction appears exactly
// once across the whole list (Newton-3 half-list semantics), and pairs
// excluded by topology or between two fixed atoms are masked out at build
// time. K caches the element-pair table index when it is uniform across
// every masked pair of the entry; otherwise it holds the mixed sentinel
// nelem² (see MixedK), telling vector kernels to defer to a scalar pass.
//
// The field layout is load-bearing: {int32, uint16, uint16} packs into
// exactly eight little-endian bytes (CJ | Mask<<32 | K<<48), letting the
// amd64 kernel read entries as single MOVQ words. Do not reorder fields.
type ClusterEntry struct {
	CJ   int32
	Mask uint16
	K    uint16
}

// MixedK returns the sentinel K value marking an entry whose masked pairs
// span more than one element-pair table row.
//
//mw:hotpath
func MixedK(nelem int) uint16 { return uint16(nelem * nelem) }

// ClusterCoords holds positions transposed into padded structure-of-arrays
// form: lane i of X/Y/Z is atom i, with the tail of the last cluster padded
// by clusterPad. It is shared by every chunk's cluster kernel and must be
// repacked (serially) whenever positions change.
type ClusterCoords struct {
	NC      int // number of clusters = ceil(N/ClusterSize)
	X, Y, Z []float64
}

// Pack refreshes the padded SoA copy of s.Pos, reusing storage.
//
//mw:hotpath
func (cc *ClusterCoords) Pack(s *atom.System) {
	n := s.N()
	nc := (n + ClusterSize - 1) / ClusterSize
	np := nc * ClusterSize
	if cap(cc.X) < np {
		cc.X = make([]float64, np)
		cc.Y = make([]float64, np)
		cc.Z = make([]float64, np)
	}
	cc.NC = nc
	x, y, z := cc.X[:np], cc.Y[:np], cc.Z[:np]
	for i, p := range s.Pos {
		if i >= np {
			break
		}
		x[i], y[i], z[i] = p.X, p.Y, p.Z
	}
	for i := n; i < np; i++ {
		x[i], y[i], z[i] = clusterPad, clusterPad, clusterPad
	}
}

// ClusterList is the cluster-pair neighbor list for the atom range
// [Lo, Hi): the MxN counterpart of RangeList. Entries are grouped by
// i-cluster; Offsets[ci-CiLo] .. Offsets[ci-CiLo+1] index the entries of
// global cluster ci. A cluster straddling a chunk boundary appears in both
// chunks' lists, but each chunk masks in only the rows of atoms it owns, so
// the pair sets stay disjoint. Storage is reused across rebuilds.
type ClusterList struct {
	Lo, Hi     int // owned atom range
	CiLo, CiHi int // cluster range covering [Lo, Hi)
	MaxCJ      int // highest CJ referenced (scratch dirty-window bound)
	Mixed      int // number of entries with K == MixedK(nelem)
	Offsets    []int32
	Entries    []ClusterEntry

	last, at []int32 // per-cj dedup stamps / entry back-pointers
	buf      []int32 // neighbor scratch
}

// BuildClusterRange rebuilds the cluster-pair list for atoms [lo, hi) from
// the grid's current cell assignment (Assign must have run). Pairs beyond
// rng never enter the list, and keepInteracting drops pairs excluded by
// topology or between two fixed atoms, so kernels need no per-pair checks.
//
//mw:hotpath
func (g *Grid) BuildClusterRange(s *atom.System, rng float64, lo, hi int, cl *ClusterList) {
	n := s.N()
	nc := (n + ClusterSize - 1) / ClusterSize
	cl.Lo, cl.Hi = lo, hi
	cl.CiLo, cl.CiHi = lo/ClusterSize, (hi+ClusterSize-1)/ClusterSize
	cl.MaxCJ = cl.CiHi - 1
	cl.Mixed = 0
	local := cl.CiHi - cl.CiLo
	if cap(cl.Offsets) < local+1 {
		cl.Offsets = make([]int32, local+1)
	}
	cl.Offsets = cl.Offsets[:local+1]
	cl.Entries = cl.Entries[:0]
	if cap(cl.last) < nc {
		cl.last = make([]int32, nc)
		cl.at = make([]int32, nc)
	}
	cl.last = cl.last[:nc]
	cl.at = cl.at[:nc]
	for i := range cl.last {
		cl.last[i] = -1
	}

	nelem := len(s.Elements)
	mixed := MixedK(nelem)
	elem := s.Elem
	for ci := cl.CiLo; ci < cl.CiHi; ci++ {
		cl.Offsets[ci-cl.CiLo] = int32(len(cl.Entries))
		rowLo, rowHi := ci*ClusterSize, ci*ClusterSize+ClusterSize
		if rowLo < lo {
			rowLo = lo
		}
		if rowHi > hi {
			rowHi = hi
		}
		for i := rowLo; i < rowHi; i++ {
			cl.buf = keepInteracting(s, i, g.AppendNeighbors(s, i, rng, cl.buf[:0]), 0)
			a := i - ci*ClusterSize
			ki := int(elem[i]) * nelem
			for _, j := range cl.buf {
				cj := int(j) / ClusterSize
				b := int(j) - cj*ClusterSize
				k := uint16(ki + int(elem[j]))
				if cl.last[cj] != int32(ci) {
					cl.last[cj] = int32(ci)
					cl.at[cj] = int32(len(cl.Entries))
					cl.Entries = append(cl.Entries, ClusterEntry{CJ: int32(cj), K: k})
					if cj > cl.MaxCJ {
						cl.MaxCJ = cj
					}
				}
				e := &cl.Entries[cl.at[cj]]
				e.Mask |= 1 << uint(a*ClusterSize+b)
				if e.K != k {
					e.K = mixed
				}
			}
		}
	}
	cl.Offsets[local] = int32(len(cl.Entries))
	for i := range cl.Entries {
		if cl.Entries[i].K == mixed {
			cl.Mixed++
		}
	}
}

// EntriesOf returns the entry slice of global cluster ci. The slice aliases
// internal storage and is invalidated by the next build. The explicit
// guards keep the inlined body free of implicit bounds checks
// (`mwlint -bce`).
//
//mw:hotpath
func (cl *ClusterList) EntriesOf(ci int) []ClusterEntry {
	i := ci - cl.CiLo
	offs := cl.Offsets
	if i < 0 || i >= len(offs) {
		return nil
	}
	seg := offs[i:]
	if len(seg) < 2 {
		return nil
	}
	a, b := int(seg[0]), int(seg[1])
	es := cl.Entries
	if a < 0 || b < a || b > len(es) {
		return nil
	}
	return es[a:b]
}

// Pairs returns the total number of masked pairs in the list.
func (cl *ClusterList) Pairs() int {
	total := 0
	for _, e := range cl.Entries {
		m := e.Mask
		for m != 0 {
			m &= m - 1
			total++
		}
	}
	return total
}
