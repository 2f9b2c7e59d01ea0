package main

import "time"

// Where the engine's packed AVX2 kernel sits on the stack decides how fast
// it runs. The kernel keeps twelve accumulators in its own 552-byte frame
// and stores to them for every list entry, between loads from its tables;
// at one stack depth in every 4 KiB the two collide (the signature of 4 KiB
// aliasing between the frame's stores and those loads). Stepping Al-1000
// from a goroutine at 104 depths 40 bytes apart, a plain step took 154 to
// 161 us at 95 of them, 164 to 169 us at the eight before the bad one, and
// 440 to 447 us at that one, on both of two sweeps; the engine's machine
// code is the same bytes at the same addresses throughout. Which depth a
// program's steps run at is an accident of every frame above them: one
// build of this benchmark stepped Al-1000 at 450 us on every run, and the
// next, with a Printf added to this package's step loop, at 158 us.
//
// The end-to-end numbers must not hang on that accident, in this package's
// frames or the engine's. So every timed step is taken on a goroutine of
// its own at one of four stack depths a kilobyte apart, of which the bad
// stretch (about 360 bytes) can touch one. The warm-up steps find the depth
// at which a simulation steps fastest, and the run uses that one.

const stackPositions = 4

// atDepth calls fn with about k more kilobytes of stack above it.
//
//go:noinline
func atDepth(k int, fn func()) {
	var pad [122]uint64
	if k <= 0 {
		fn()
	} else {
		atDepth(k-1, fn)
	}
	keep(pad[:])
}

//go:noinline
func keep([]uint64) {}

// stepRecord is what the stepping loop notes after every step: the instant,
// and the engine's own public accumulators, from which the caller makes
// step times and (in a traced run) spans afterwards.
type stepRecord struct {
	end      time.Time
	rebuilds int
	phaseS   [len(enginePhases)]float64 // cumulative wall per phase, seconds
}

// stepLoop is the only frame of this package between the pads and
// sim.Step(). Traced and untraced segments share it, so both pay the same
// few loads per step and sit at the same place on the stack.
//
//go:noinline
func stepLoop(sim *simulation, recs []stepRecord) {
	for i := range recs {
		sim.Step()
		r := &recs[i]
		r.end = time.Now()
		r.rebuilds = sim.Rebuilds()
		for k, ph := range enginePhases {
			r.phaseS[k] = sim.PhaseWall[ph.ph].Sum()
		}
	}
}

// stepsAt takes len(recs) steps on a goroutine of their own, at stack
// position k, and returns when they are done. A new goroutine's stack
// starts on a 2 KiB boundary, so position k means the same place whoever
// calls.
func stepsAt(k int, sim *simulation, recs []stepRecord) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		atDepth(k, func() { stepLoop(sim, recs) })
	}()
	<-done
}

// fastestPosition spends about n warm-up steps finding the stack position
// at which sim steps fastest. Positions take turns in short blocks, so that
// a drift along the trajectory falls on all of them alike; the lower
// quartile of a position's step times stands for it, which rebuild steps
// and interruptions do not reach. The first position within 1% of the best
// wins, so that equals do not trade places from run to run.
func fastestPosition(sim *simulation, n int) int {
	const rounds = 3
	recs := make([]stepRecord, max(n/(rounds*stackPositions), 3))
	var stepUS [stackPositions][]float64
	for round := 0; round < rounds; round++ {
		for k := 0; k < stackPositions; k++ {
			prev := time.Now()
			stepsAt(k, sim, recs)
			for i := range recs {
				if i > 0 { // the first step of a block also paid for starting the goroutine
					stepUS[k] = append(stepUS[k], float64(recs[i].end.Sub(prev))/1e3)
				}
				prev = recs[i].end
			}
		}
	}
	var quartile [stackPositions]float64
	best := 0.0
	for k := range stepUS {
		quartile[k] = percentile(stepUS[k], 25)
		if k == 0 || quartile[k] < best {
			best = quartile[k]
		}
	}
	for k, q := range quartile {
		if q <= 1.01*best {
			return k
		}
	}
	return 0
}
