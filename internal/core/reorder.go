package core

import "mw/internal/atom"

// The engine-native reorder pass (Cfg.Reorder): at every neighbor-list
// rebuild, atoms are sorted into Morton (Z-order) cell order with a stable
// counting sort over the grid's Morton cell ranks, and the permutation is
// applied to the whole System plus the engine's own per-atom state. The
// paper's §V-A could only *simulate* this layout effect (internal/jheap);
// here the SoA slices are really permuted, which is what makes the
// cell-ordered traversal of MD-Bench (arXiv:2302.14660) available to the
// force kernels.

// reorderState is the Simulation's spatial-reordering scratch and the
// original-ID bookkeeping. All buffers are reused across rebuilds.
type reorderState struct {
	reorderer atom.Reorderer

	mortonRank []int32 // cell index → Morton rank, cached per grid
	rankDims   [3]int  // grid dims the cache was built for

	keys    []int32 // per-atom Morton cell rank
	counts  []int32 // per-rank populations (prefix-summed during the sort)
	cellPop []int32 // per-rank populations preserved for chunk alignment
	order   []int32 // gather permutation: order[new] = old

	// orig[slot] = original atom ID now held in slot; origSlot is its
	// inverse. nil until the first non-identity reorder.
	orig     []int32
	origSlot []int32

	reorders int
}

// maybeReorder permutes the system into Morton cell order if Cfg.Reorder is
// enabled and the current positions are not already sorted. It must run
// before grid.Assign on the rebuild path (it invalidates cell chains) and
// only between phases, never inside one. Returns whether a permutation was
// applied.
//
//mw:coldcall
func (sim *Simulation) maybeReorder() bool {
	if !sim.Cfg.Reorder {
		return false
	}
	ro := &sim.ro
	g := sim.grid
	if ro.mortonRank == nil || ro.rankDims != g.Dims {
		ro.mortonRank = g.MortonRanks()
		ro.rankDims = g.Dims
	}
	s := sim.Sys
	n := s.N()
	nc := g.NumCells()
	if cap(ro.keys) < n {
		ro.keys = make([]int32, n)
		ro.order = make([]int32, n)
	}
	if cap(ro.counts) < nc+1 {
		ro.counts = make([]int32, nc+1)
		ro.cellPop = make([]int32, nc)
	}
	keys, order := ro.keys[:n], ro.order[:n]
	counts, pop := ro.counts[:nc+1], ro.cellPop[:nc]
	for i := range counts {
		counts[i] = 0
	}
	sorted := true
	for i := 0; i < n; i++ {
		k := ro.mortonRank[g.CellIndexOf(s.Pos[i])]
		keys[i] = k
		counts[k+1]++
		if i > 0 && keys[i-1] > k {
			sorted = false
		}
	}
	copy(pop, counts[1:])
	if sorted {
		return false
	}
	for r := 0; r < nc; r++ {
		counts[r+1] += counts[r]
	}
	// Stable counting sort: old atoms in key order, ties in index order.
	for i := 0; i < n; i++ {
		k := keys[i]
		order[counts[k]] = int32(i)
		counts[k]++
	}

	if err := ro.reorderer.Apply(s, order); err != nil {
		// The order was just constructed as a permutation and the system
		// was validated at New; any failure here is an engine bug.
		panic("core: reorder pass produced an invalid permutation: " + err.Error())
	}
	sim.permuteEngineState(order)
	ro.reorders++
	return true
}

// permuteEngineState carries the per-atom state the engine owns (charged-atom
// index list, original-ID maps) across a permutation of the System.
func (sim *Simulation) permuteEngineState(order []int32) {
	ro := &sim.ro
	n := len(order)

	// The charged-atom list holds indices; map them and restore ascending
	// order by rescanning (the list length never changes under relabeling).
	if len(sim.charged) > 0 {
		sim.charged = sim.charged[:0]
		for i := 0; i < n; i++ {
			if sim.Sys.Charge[i] != 0 {
				sim.charged = append(sim.charged, int32(i))
			}
		}
	}

	if ro.orig == nil {
		ro.orig = make([]int32, n)
		ro.origSlot = make([]int32, n)
		copy(ro.orig, order)
	} else {
		// Compose: slot k now holds the atom that was in old slot order[k],
		// whose original ID is orig[order[k]]. origSlot's backing doubles
		// as compose scratch; it is rebuilt from orig below.
		scratch := ro.origSlot
		for k, o := range order {
			scratch[k] = ro.orig[o]
		}
		ro.orig, ro.origSlot = scratch, ro.orig
	}
	for k, id := range ro.orig {
		ro.origSlot[id] = int32(k)
	}
}

// Reorders returns how many times the reorder pass has actually permuted
// the system.
func (sim *Simulation) Reorders() int { return sim.ro.reorders }

// OriginalIDs returns orig[slot] = the original (construction-time) ID of
// the atom currently stored at slot, or nil if the system has never been
// reordered. The slice is live engine state; treat it as read-only and
// invalidated by the next Step.
func (sim *Simulation) OriginalIDs() []int32 { return sim.ro.orig }

// SystemInOriginalOrder returns the simulation state with atoms in their
// original construction order — the view trajectory writers and model
// savers should use, so files are comparable across runs regardless of how
// the engine has packed memory. Without Cfg.Reorder (or before the first
// permutation) it returns the live system itself; afterwards it returns a
// fresh de-permuted deep copy. Call it only between steps.
func (sim *Simulation) SystemInOriginalOrder() *atom.System {
	if sim.ro.orig == nil {
		return sim.Sys
	}
	c := sim.Sys.Clone()
	var r atom.Reorderer
	if err := r.Apply(c, sim.ro.origSlot); err != nil {
		panic("core: original-order view failed: " + err.Error())
	}
	return c
}

// cellChunkCuts builds atom-chunk boundaries aligned to Morton cell blocks:
// walking cells in Morton rank order, a cut is placed whenever the running
// population reaches the target chunk size, so every chunk is a contiguous
// block of whole cells (in the Morton-sorted atom layout, a contiguous
// atom range). pop is the per-rank cell population from the last reorder.
func cellChunkCuts(pop []int32, total, target int) []int32 {
	if target <= 0 {
		target = 1
	}
	cuts := make([]int32, 1, total/target+2)
	run := 0
	sum := 0
	for _, p := range pop {
		run += int(p)
		sum += int(p)
		if run >= target && sum < total {
			cuts = append(cuts, int32(sum))
			run = 0
		}
	}
	cuts = append(cuts, int32(total))
	return cuts
}
