package cells

import (
	"encoding/binary"
	"testing"

	"mw/internal/atom"
	"mw/internal/vec"
)

// FuzzClusterList drives BuildClusterRange with arbitrary positions, box
// shapes and chunk cuts. The contract under test: every brute-force half
// pair within range (minus excluded and fixed-fixed pairs) is covered by
// exactly one unmasked lane of exactly one cluster-pair entry, no mask bit
// covers anything else, and the chunked builds partition the pair set. This
// is the property the force kernels rely on to visit each interaction once.
func FuzzClusterList(f *testing.F) {
	f.Add(uint8(9), uint8(60), false, uint16(4), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add(uint8(17), uint8(90), true, uint16(300), []byte{200, 10, 250, 30, 90, 120, 7, 77})
	f.Add(uint8(33), uint8(120), false, uint16(33), []byte{0, 0, 0, 1, 1, 1, 2, 2, 2})
	f.Fuzz(func(t *testing.T, n uint8, boxScale uint8, periodic bool, cut uint16, posBytes []byte) {
		if n == 0 || n > 80 {
			return
		}
		l := 4 + float64(boxScale)/8 // 4 .. 36 Å
		const rng = 3.5
		if periodic && l < 2*rng {
			// Minimum-image needs every periodic edge ≥ the range; smaller
			// boxes are rejected by the engine before any list is built.
			return
		}
		s := atom.NewSystem(atom.CubicBox(l, periodic))
		for i := 0; i < int(n); i++ {
			var c [3]float64
			for d := 0; d < 3; d++ {
				idx := (i*3 + d) * 2
				var v uint16
				if idx+1 < len(posBytes) {
					v = binary.LittleEndian.Uint16(posBytes[idx:])
				} else if idx < len(posBytes) {
					v = uint16(posBytes[idx])
				} else {
					v = uint16(uint32(i)*2654435761) ^ uint16(d*40503)
				}
				c[d] = float64(v) / 65536 * l
			}
			elem := int16(atom.Ar)
			if i%2 == 1 {
				elem = int16(atom.Al)
			}
			s.AddAtom(elem, vec.New(c[0], c[1], c[2]), vec.Zero, 0, i%5 == 0)
		}
		if n > 1 {
			s.Bonds = append(s.Bonds, atom.Bond{I: 0, J: int32(n / 2)})
			s.BuildExclusions()
		}

		g := NewGrid(s.Box, rng)
		g.Assign(s)
		var cl ClusterList
		g.BuildClusterRange(s, rng, 0, s.N(), &cl)
		got := clusterPairs(t, &cl)
		want := expectedPairs(s, rng)
		if len(got) != len(want) {
			t.Fatalf("full build covers %d pairs, brute force %d", len(got), len(want))
		}
		for k := range want {
			if got[k] != 1 {
				t.Fatalf("pair (%d,%d) not covered exactly once", k>>32, int32(k))
			}
		}

		// Chunked build at an arbitrary cut must partition the same set.
		mid := int(cut) % (s.N() + 1)
		var lo, hi ClusterList
		g.BuildClusterRange(s, rng, 0, mid, &lo)
		g.BuildClusterRange(s, rng, mid, s.N(), &hi)
		union := map[int64]int{}
		for k := range clusterPairs(t, &lo) {
			union[k]++
		}
		for k := range clusterPairs(t, &hi) {
			union[k]++
		}
		if len(union) != len(want) {
			t.Fatalf("chunked union covers %d pairs, want %d", len(union), len(want))
		}
		for k, c := range union {
			if c != 1 {
				t.Fatalf("pair (%d,%d) owned by both chunks", k>>32, int32(k))
			}
		}
	})
}
