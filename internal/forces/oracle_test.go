package forces_test

import (
	"testing"

	"mw/internal/cells"
	"mw/internal/forces"
	"mw/internal/vec"
	"mw/internal/workload"
)

// TestRangeListMatchesOracleOnNanocar holds the range-list kernel to the
// NeighborList oracle bit for bit on the nanocar, whose fixed platform and
// bonded topology are what the list builder filters out. The oracle lists
// every pair in range and skips the non-interacting ones per pair; the
// kernel trusts the builder to have dropped them. Both visit the surviving
// pairs in the same order, so PE and every force component must be equal.
func TestRangeListMatchesOracleOnNanocar(t *testing.T) {
	b := workload.Nanocar()
	s := b.Sys
	lj := forces.NewLJ(s.Elements, b.Cfg.LJCutoff)

	nl := cells.NewNeighborList(b.Cfg.LJCutoff, b.Cfg.Skin)
	nl.Build(s)
	want := make([]vec.Vec3, s.N())
	peWant := lj.Accumulate(s, nl, want)

	rng := b.Cfg.LJCutoff + b.Cfg.Skin
	g := cells.NewGrid(s.Box, rng)
	g.Assign(s)
	var rl cells.RangeList
	g.BuildRange(s, rng, 0, s.N(), &rl)
	got := make([]vec.Vec3, s.N())
	peGot := lj.AccumulateRangeList(s, &rl, got)

	if peGot != peWant {
		t.Errorf("PE: range list %v, oracle %v", peGot, peWant)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("atom %d: range list force %v, oracle %v", i, got[i], want[i])
		}
	}
}
