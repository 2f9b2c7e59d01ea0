package cells

import (
	"testing"

	"mw/internal/atom"
	"mw/internal/vec"
)

func TestBuildRangeMatchesGlobalList(t *testing.T) {
	s := randomSystem(21, 120, 14, true)
	const cutoff, skin = 3.0, 0.5
	nl := NewNeighborList(cutoff, skin)
	nl.Build(s)

	g := NewGrid(s.Box, cutoff+skin)
	g.Assign(s)
	var rl RangeList
	for _, span := range [][2]int{{0, 40}, {40, 77}, {77, 120}} {
		g.BuildRange(s, cutoff+skin, span[0], span[1], &rl)
		if rl.Lo != span[0] || rl.Hi != span[1] {
			t.Fatalf("range not recorded: %d..%d", rl.Lo, rl.Hi)
		}
		for i := span[0]; i < span[1]; i++ {
			want := nl.Of(i)
			got := rl.Of(i)
			if len(got) != len(want) {
				t.Fatalf("atom %d: %d neighbors vs global %d", i, len(got), len(want))
			}
			seen := map[int32]bool{}
			for _, j := range want {
				seen[j] = true
			}
			for _, j := range got {
				if !seen[j] {
					t.Fatalf("atom %d: spurious neighbor %d", i, j)
				}
			}
		}
	}
}

func TestBuildRangeStorageReuse(t *testing.T) {
	s := randomSystem(23, 100, 12, false)
	g := NewGrid(s.Box, 3.5)
	g.Assign(s)
	var rl RangeList
	g.BuildRange(s, 3.5, 0, 50, &rl)
	c1 := cap(rl.Neighbors)
	g.BuildRange(s, 3.5, 0, 50, &rl)
	if cap(rl.Neighbors) != c1 {
		t.Error("rebuild reallocated neighbor storage")
	}
}

func TestMaxDisplacement2(t *testing.T) {
	s := randomSystem(24, 10, 20, false)
	ref := append([]vec.Vec3(nil), s.Pos...)
	if d := MaxDisplacement2(s, ref, 0, 10); d != 0 {
		t.Errorf("unmoved system displacement %v", d)
	}
	s.Pos[3] = s.Pos[3].Add(vec.New(0, 2, 0))
	if d := MaxDisplacement2(s, ref, 0, 10); d != 4 {
		t.Errorf("displacement² = %v, want 4", d)
	}
	// Out-of-range window ignores the move.
	if d := MaxDisplacement2(s, ref, 4, 10); d != 0 {
		t.Errorf("windowed displacement = %v", d)
	}
}

func TestCellIndexOfConsistentWithAssign(t *testing.T) {
	s := randomSystem(25, 60, 15, true)
	g := NewGrid(s.Box, 3)
	g.Assign(s)
	// Walk each cell's chain: every member must map back to that cell.
	for c := 0; c < g.NumCells(); c++ {
		for j := g.head[c]; j >= 0; j = g.next[j] {
			if got := g.CellIndexOf(s.Pos[j]); got != c {
				t.Fatalf("atom %d in chain of cell %d but CellIndexOf = %d", j, c, got)
			}
		}
	}
}

func TestNeighborListRectangularBox(t *testing.T) {
	// Non-cubic periodic box: grid dims differ per dimension and the lists
	// must still equal brute force.
	s := NewRectSystem(26, 40, 26, 13, 150)
	nl := NewNeighborList(3, 0.5)
	nl.Build(s)
	got := pairsFromList(nl, s.N())
	want := BruteForcePairs(s, 3.5)
	assertPairsEqual(t, got, want)
}

// TestBuildRangeDropsNonInteractingPairs pins the list contract: the half
// range list holds exactly the interacting pairs within range (no
// fixed–fixed, no topology-excluded pair), each one once.
func TestBuildRangeDropsNonInteractingPairs(t *testing.T) {
	const rng = 3.0
	for _, periodic := range []bool{false, true} {
		s := clusterTestSystem(153, 12, periodic, 42)
		s.Bonds = append(s.Bonds, atom.Bond{I: 0, J: 1}, atom.Bond{I: 10, J: 11})
		s.BuildExclusions()
		g := NewGrid(s.Box, rng)
		g.Assign(s)
		want := expectedPairs(s, rng)
		var rl RangeList
		g.BuildRange(s, rng, 0, s.N(), &rl)
		got := map[int64]int{}
		for i := 0; i < s.N(); i++ {
			for _, j := range rl.Of(i) {
				a, b := int32(i), j
				if a > b {
					a, b = b, a
				}
				got[pairKey(a, b)]++
			}
		}
		for k := range want {
			if got[k] != 1 {
				t.Errorf("periodic=%v: pair (%d,%d) listed %d times, want 1",
					periodic, k>>32, int32(k), got[k])
			}
		}
		for k := range got {
			if !want[k] {
				t.Errorf("periodic=%v: non-interacting pair (%d,%d) listed",
					periodic, k>>32, int32(k))
			}
		}
		if rl.Len() != len(want) {
			t.Errorf("periodic=%v: Len = %d, want %d", periodic, rl.Len(), len(want))
		}
	}
}
