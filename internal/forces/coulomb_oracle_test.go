package forces_test

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"mw/internal/atom"
	"mw/internal/forces"
	"mw/internal/units"
	"mw/internal/vec"
	"mw/internal/workload"
)

// coulombRangeOracle is the direct Coulomb kernel in its plainest form: Vec3
// method chains, the System's arrays read through s on every pair, and the
// box's MinImage applied to every displacement. Coulomb.AccumulateRange must
// match it bit for bit on every input.
func coulombRangeOracle(c forces.Coulomb, s *atom.System, charged []int32, lo, hi int, f []vec.Vec3) float64 {
	var pe float64
	soft2 := c.Softening * c.Softening
	box := s.Box
	for ci := lo; ci < hi; ci++ {
		i := charged[ci]
		pi := s.Pos[i]
		qi := s.Charge[i]
		fi := f[i]
		for cj := ci + 1; cj < len(charged); cj++ {
			j := charged[cj]
			d := box.MinImage(s.Pos[j].Sub(pi))
			r2 := d.Norm2() + soft2
			if r2 == 0 {
				continue
			}
			r := math.Sqrt(r2)
			e := units.CoulombK * qi * s.Charge[j] / r
			pe += e
			// F = k q1 q2 / r² along the pair axis; repulsive for like signs.
			fs := e / r2
			fi = fi.AddScaled(-fs, d)
			f[j] = f[j].AddScaled(fs, d)
		}
		f[i] = fi
	}
	return pe
}

type coulombRange func(c forces.Coulomb, s *atom.System, charged []int32, lo, hi int, f []vec.Vec3) float64

// coulombChunked runs kernel over the charged list in chunks of the given
// size, in order, into one copy of f0, summing PE per chunk the way the
// engine's serial force phase does.
func coulombChunked(kernel coulombRange, c forces.Coulomb, s *atom.System, chunk int, f0 []vec.Vec3) (float64, []vec.Vec3) {
	charged := s.ChargedIndices()
	f := append([]vec.Vec3(nil), f0...)
	var pe float64
	for lo := 0; lo < len(charged); lo += chunk {
		hi := min(lo+chunk, len(charged))
		pe += kernel(c, s, charged, lo, hi, f)
	}
	return pe, f
}

// assertCoulombBitwise holds the kernel to the oracle on s: PE and every
// force component must have the same bits.
func assertCoulombBitwise(t *testing.T, c forces.Coulomb, s *atom.System, chunk int, f0 []vec.Vec3) {
	t.Helper()
	peWant, want := coulombChunked(coulombRangeOracle, c, s, chunk, f0)
	peGot, got := coulombChunked(forces.Coulomb.AccumulateRange, c, s, chunk, f0)
	if math.Float64bits(peGot) != math.Float64bits(peWant) {
		t.Errorf("PE: kernel %v, oracle %v", peGot, peWant)
	}
	for i := range want {
		g, w := got[i], want[i]
		if math.Float64bits(g.X) != math.Float64bits(w.X) ||
			math.Float64bits(g.Y) != math.Float64bits(w.Y) ||
			math.Float64bits(g.Z) != math.Float64bits(w.Z) {
			t.Fatalf("atom %d: kernel force %v, oracle %v", i, g, w)
		}
	}
}

// coulombChunk is the engine's Coulomb chunk size at the default ChunkAtoms.
const coulombChunk = 33

func jitter(s *atom.System, seed int64, amp float64) {
	rng := rand.New(rand.NewSource(seed))
	for i := range s.Pos {
		s.Pos[i] = s.Pos[i].Add(vec.New(
			amp*(2*rng.Float64()-1), amp*(2*rng.Float64()-1), amp*(2*rng.Float64()-1)))
	}
}

func TestCoulombMatchesOracleOnSalt(t *testing.T) {
	s := workload.Salt().Sys
	jitter(s, 1, 0.3)
	assertCoulombBitwise(t, forces.Coulomb{Softening: 0.05}, s, coulombChunk, make([]vec.Vec3, s.N()))
}

func TestCoulombMatchesOracleAcrossPeriodicBoundary(t *testing.T) {
	// Ions packed against both faces of a small periodic box, so most
	// minimum-image displacements wrap.
	const l = 12.0
	s := atom.NewSystem(atom.CubicBox(l, true))
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 60; i++ {
		var p vec.Vec3
		for _, c := range []*float64{&p.X, &p.Y, &p.Z} {
			*c = rng.Float64() * 1.5
			if rng.Intn(2) == 0 {
				*c = l - *c
			}
		}
		q := 1.0
		if i%2 == 1 {
			q = -1
		}
		s.AddAtom(atom.Na, p, vec.Zero, q, false)
	}
	assertCoulombBitwise(t, forces.Coulomb{Softening: 0.05}, s, coulombChunk, make([]vec.Vec3, s.N()))
}

func TestCoulombMatchesOracleMixedCharges(t *testing.T) {
	// Every third atom neutral: the charged list skips them, so charged[k]
	// differs from k and the kernel must index through it.
	s := atom.NewSystem(atom.CubicBox(20, false))
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 90; i++ {
		q := float64(rng.Intn(5) - 2)
		if i%3 == 0 {
			q = 0
		}
		s.AddAtom(atom.Cl, vec.New(rng.Float64()*20, rng.Float64()*20, rng.Float64()*20), vec.Zero, q, false)
	}
	if len(s.ChargedIndices()) == s.N() {
		t.Fatal("charged list is the identity; the case tests nothing")
	}
	assertCoulombBitwise(t, forces.Coulomb{Softening: 0.05}, s, coulombChunk, make([]vec.Vec3, s.N()))
}

func TestCoulombMatchesOracleNonZeroStartForce(t *testing.T) {
	s := workload.Salt().Sys
	jitter(s, 4, 0.3)
	rng := rand.New(rand.NewSource(5))
	f0 := make([]vec.Vec3, s.N())
	for i := range f0 {
		f0[i] = vec.New(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
	}
	assertCoulombBitwise(t, forces.Coulomb{Softening: 0.05}, s, coulombChunk, f0)
}

func TestCoulombMatchesOracleCoincidentUnsoftened(t *testing.T) {
	// Softening 0 and two ions on the same spot: r² = 0 must skip the pair
	// in both kernels while every other pair still interacts.
	s := atom.NewSystem(atom.CubicBox(10, false))
	s.AddAtom(atom.Na, vec.New(5, 5, 5), vec.Zero, 1, false)
	s.AddAtom(atom.Cl, vec.New(5, 5, 5), vec.Zero, -1, false)
	s.AddAtom(atom.Na, vec.New(7, 5, 4), vec.Zero, 1, false)
	s.AddAtom(atom.Cl, vec.New(3, 6, 5), vec.Zero, -1, false)
	assertCoulombBitwise(t, forces.Coulomb{}, s, 1, make([]vec.Vec3, s.N()))
}

// FuzzCoulombBitwise decodes bytes into 2–64 ions with random charges (some
// zero), an open or periodic box, a softening length (zero included) and a
// chunk size, and holds Coulomb.AccumulateRange to the oracle bit for bit.
func FuzzCoulombBitwise(f *testing.F) {
	f.Add(uint8(2), false, uint8(0), uint8(1), []byte{0, 0, 0, 0, 0, 0, 0, 3})
	f.Add(uint8(9), true, uint8(3), uint8(4), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14})
	f.Add(uint8(40), true, uint8(0), uint8(33), []byte{250, 10, 0, 30, 90, 120, 7, 77, 200, 1})
	f.Add(uint8(64), false, uint8(12), uint8(7), []byte{9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9})
	f.Fuzz(func(t *testing.T, n uint8, periodic bool, soft uint8, chunk uint8, data []byte) {
		if n < 2 || n > 64 {
			return
		}
		const l = 15.0
		s := atom.NewSystem(atom.CubicBox(l, periodic))
		f0 := make([]vec.Vec3, n)
		word := func(k int) uint16 {
			if 2*k+1 < len(data) {
				return binary.LittleEndian.Uint16(data[2*k:])
			}
			return uint16(uint32(k) * 2654435761 >> 7)
		}
		for i := 0; i < int(n); i++ {
			// Positions span [-l/2, 3l/2) so periodic images wrap both ways.
			var c [3]float64
			for d := range c {
				c[d] = (float64(word(5*i+d))/65536*2 - 0.5) * l
			}
			w := word(5*i + 3)
			q := float64(int(w%7)-3) / 2 // -1.5 … 1.5, zero one time in seven
			s.AddAtom(atom.Na, vec.New(c[0], c[1], c[2]), vec.Zero, q, false)
			g := float64(int16(word(5*i+4))) / 4096
			f0[i] = vec.New(g, -g/3, g/7)
		}
		c := forces.Coulomb{Softening: float64(soft) / 64}
		assertCoulombBitwise(t, c, s, 1+int(chunk)%40, f0)
	})
}

// BenchmarkCoulombSalt times the kernel and its oracle over the salt
// workload's 319 600 ion pairs, in the engine's 33-ion chunks.
func BenchmarkCoulombSalt(b *testing.B) {
	s := workload.Salt().Sys
	c := forces.Coulomb{Softening: 0.05}
	n := len(s.ChargedIndices())
	pairs := float64(n * (n - 1) / 2)
	f := make([]vec.Vec3, s.N())
	for _, k := range []struct {
		name   string
		kernel coulombRange
	}{{"kernel", forces.Coulomb.AccumulateRange}, {"oracle", coulombRangeOracle}} {
		b.Run(k.name, func(b *testing.B) {
			for b.Loop() {
				coulombChunked(k.kernel, c, s, coulombChunk, f)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/pairs, "ns/pair")
		})
	}
}
