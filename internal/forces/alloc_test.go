package forces_test

import (
	"testing"

	"mw/internal/cells"
	"mw/internal/forces"
	"mw/internal/vec"
	"mw/internal/workload"
)

// TestLJHotPathAllocationFree pins the hot path's zero-allocation contract
// on Al-1000: every LJ kernel and the list builds and packing that feed
// them must reuse their buffers once warm, and the list builds must do the
// same on the nanocar. testing.AllocsPerRun runs one warm-up call (the
// growth of lists and scratch) and measures at GOMAXPROCS(1), so any
// nonzero count here is a real heap escape.
func TestLJHotPathAllocationFree(t *testing.T) {
	b := workload.Al1000()
	s := b.Sys
	rng := b.Cfg.LJCutoff + b.Cfg.Skin
	lj := forces.NewLJ(s.Elements, b.Cfg.LJCutoff)
	g := cells.NewGrid(s.Box, rng)
	g.Assign(s)
	var half cells.RangeList
	var cl cells.ClusterList
	var cc cells.ClusterCoords
	var scr forces.ClusterScratch
	g.BuildRange(s, rng, 0, s.N(), &half)
	g.BuildClusterRange(s, rng, 0, s.N(), &cl)
	cc.Pack(s)
	f := make([]vec.Vec3, s.N())

	type allocCase struct {
		name string
		run  func()
	}
	cases := []allocCase{
		{"AccumulateRangeList", func() { lj.AccumulateRangeList(s, &half, f) }},
		{"AccumulateRangeListFast", func() { lj.AccumulateRangeListFast(s, &half, f) }},
		{"AccumulateClusterList", func() { lj.AccumulateClusterList(s, &cl, f) }},
		{"AccumulateClusterListFast", func() { lj.AccumulateClusterListFast(s, &cl, f) }},
		{"Grid.BuildRange", func() { g.BuildRange(s, rng, 0, s.N(), &half) }},
		{"Grid.BuildClusterRange", func() { g.BuildClusterRange(s, rng, 0, s.N(), &cl) }},
		{"ClusterCoords.Pack", func() { cc.Pack(s) }},
	}
	if forces.HaveClusterSIMD {
		cases = append(cases, allocCase{"AccumulateClusterListSIMD", func() { lj.AccumulateClusterListSIMD(s, &cc, &cl, &scr, f) }})
	}
	// Al-1000 has no fixed atoms and no exclusions, so its list builds take
	// the pair filter's early return; the nanocar (bonded topology, fixed
	// platform) runs the filter itself.
	nc := workload.Nanocar()
	ns := nc.Sys
	nrng := nc.Cfg.LJCutoff + nc.Cfg.Skin
	ng := cells.NewGrid(ns.Box, nrng)
	ng.Assign(ns)
	var nhalf cells.RangeList
	var ncl cells.ClusterList
	cases = append(cases,
		allocCase{"nanocar/Grid.BuildRange", func() { ng.BuildRange(ns, nrng, 0, ns.N(), &nhalf) }},
		allocCase{"nanocar/Grid.BuildClusterRange", func() { ng.BuildClusterRange(ns, nrng, 0, ns.N(), &ncl) }},
	)
	for _, c := range cases {
		if a := testing.AllocsPerRun(100, c.run); a != 0 {
			t.Errorf("%s: %g allocs/op, want 0", c.name, a)
		}
	}
}
