package main

import (
	"fmt"
	"math"
	"runtime"
	"time"
)

// An engine workload steps one simulation on the fast path for a fixed
// number of steps — fixed, not timed, because Al-1000 is non-stationary and
// two commits must cross the same stretch of trajectory to be comparable.
// The count is stepsPerSec × -seconds, with stepsPerSec sized on the 2-vCPU
// box at the commit that added the benchmark so that a run measures for
// about -seconds there.
type engineSpec struct {
	input       string
	stepsPerSec float64
	threads     int // worker count of the measured pass
	// warm is the warm-up prefix in steps (a multiple of 12, see
	// fastestPosition), chosen to end well clear of a list rebuild whatever
	// the seed: a 12 ms rebuild step that falls just inside or just outside
	// it would make ljliquid8k's set-up time two-valued.
	warm int
}

const (
	engineSegments  = 20   // equal segments a pass is cut into
	equivSteps      = 100  // fast path vs default path, before timing
	equivTolerance  = 1e-6 // Å, largest position deviation allowed
	energyTolerance = 2e-2 // |E−E₀|/|E₀| allowed at a segment boundary
	engineSetups    = 5    // set-ups per run; setup_s is their median
	allocSteps      = 1000 // steps the allocation counters are read over
	replayReps      = 200  // repetitions of the layer replay
	segmentCVCap    = 0.25 // above this a run is marked unresolved
)

func runAl1000(o options, m *metrics, tr *tracer) (*outcome, error) {
	return runEngine(engineSpec{"al1000", 3000, 1, 300}, o, m, tr)
}

func runSalt(o options, m *metrics, tr *tracer) (*outcome, error) {
	return runEngine(engineSpec{"salt", 150, 1, 36}, o, m, tr)
}

func runNanocar(o options, m *metrics, tr *tracer) (*outcome, error) {
	return runEngine(engineSpec{"nanocar", 3300, 1, 324}, o, m, tr)
}

func runLJLiquid(o options, m *metrics, tr *tracer) (*outcome, error) {
	spec := engineSpec{"ljliquid8k", 400, engineThreads(), 60}
	if o.smoke {
		spec = engineSpec{"ljliquid-smoke", 3000, engineThreads(), 36}
	}
	return runEngine(spec, o, m, tr)
}

// passSteps rounds a step budget to a whole number of segments.
func passSteps(budget float64) int {
	per := int(math.Round(budget / engineSegments))
	return max(per, 2) * engineSegments
}

func runEngine(spec engineSpec, o options, m *metrics, tr *tracer) (*outcome, error) {
	out := &outcome{samples: map[string]int{}}
	steps := passSteps(spec.stepsPerSec * o.seconds)
	warm, setups, checkSteps, reps := spec.warm, engineSetups, equivSteps, replayReps
	if o.smoke {
		warm, setups, checkSteps, reps = 36, 1, 20, 5
	}

	dev, err := fastPathDeviation(spec.input, o.seed, checkSteps)
	if err != nil {
		return nil, err
	}
	out.check("fast path tracks the default path", dev <= equivTolerance,
		"max position deviation after %d steps %.3g Å (limit %.0e)", checkSteps, dev, equivTolerance)

	// A traced run of the parallel workload measures Threads=1 first, from
	// the same warmed-up state, for the scaling figures.
	scaling := o.trace && spec.threads > 1
	setupThreads := spec.threads
	if scaling {
		setupThreads = 1
	}

	var (
		sim           *simulation
		cfg           engineConfig
		position      int // where on the stack the run steps; see stack.go
		setupS, newMS []float64
	)
	for r := 0; r < setups; r++ {
		if sim != nil {
			sim.Close()
		}
		runtime.GC() // off the clock: neither set-up time nor peak RSS should hang on when the collector last ran
		t0 := time.Now()
		var sys *system
		sys, cfg = generate(spec.input, o.seed)
		tNew := time.Now()
		sim, err = newSimulation(sys, fastConfig(cfg, setupThreads))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.input, err)
		}
		tr.add(0, "core.new", tr.since(tNew), tr.since(time.Now()), int64(r), "")
		newMS = append(newMS, time.Since(tNew).Seconds()*1e3)
		position = fastestPosition(sim, warm) // the warm-up prefix; see stack.go
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer func() { sim.Close() }()
	m.set("setup_s", median(setupS))
	m.set("core.new_ms", median(newMS))
	out.samples["setup_s"] = len(setupS)
	fmt.Fprintf(o.log, "# %s: %s; %d steps in %d segments, Threads=%d\n",
		spec.input, describeSystem(sim.Sys), steps, engineSegments, spec.threads)

	if !o.trace {
		runtime.GC()
		p := runPass(sim, position, steps, nil)
		reportPass(p, m, out)
		m.set("peak_rss_mb", procStatusKB(0, "VmHWM")/1024)
		return out, nil
	}

	// Traced run: half the steps per pass, alternate segments traced.
	steps = passSteps(float64(steps) / 2)
	tr.reserve(steps * (len(enginePhases) + 1))
	rate1 := 0.0
	if scaling {
		state := sim.Sys.Clone()
		runtime.GC()
		p1 := runPass(sim, position, steps, nil)
		out.attempted += int64(steps)
		out.failed += p1.failedSteps
		rate1 = median(p1.segRates)
		sim.Close()
		if sim, err = newSimulation(state, fastConfig(cfg, spec.threads)); err != nil {
			return nil, fmt.Errorf("%s: %w", spec.input, err)
		}
	}
	runtime.GC()
	busy0, wall0, contended0 := parallelCounters(sim)
	p := runPass(sim, position, steps, tr)
	busy1, wall1, contended1 := parallelCounters(sim)
	reportPass(p, m, out)
	m.set("peak_rss_mb", procStatusKB(0, "VmHWM")/1024)
	reportStepSpans(tr, p, m)

	rateP := median(untracedOnly(p.segRates, p.traced))
	if !scaling {
		rate1 = rateP
	}
	m.set("core.steps_per_s_t1", rate1)
	if spec.threads > 1 {
		m.set("core.parallel_efficiency", rateP/(float64(spec.threads)*rate1))
		var sum, most, all float64
		for w := range busy1[forcePhase] {
			b := (busy1[forcePhase][w] - busy0[forcePhase][w]).Seconds()
			sum += b
			most = max(most, b)
		}
		m.set("core.worker_imbalance", most/(sum/float64(spec.threads)))
		for ph := range busy1 {
			for w := range busy1[ph] {
				all += (busy1[ph][w] - busy0[ph][w]).Seconds()
			}
		}
		m.set("core.barrier_wait_pct", 100*(1-all/(float64(spec.threads)*(wall1-wall0))))
		m.set("core.queue_contended_per_step", float64(contended1-contended0)/float64(steps))
	}

	// Allocation counters over a fixed stretch of steps.
	n := min(allocSteps, steps/4)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		sim.Step()
	}
	runtime.ReadMemStats(&after)
	m.set("core.allocs_per_step", float64(after.Mallocs-before.Mallocs)/float64(n))
	m.set("core.bytes_per_step", float64(after.TotalAlloc-before.TotalAlloc)/float64(n))

	replayLayers(sim.Sys.Clone(), cfg, true, spec.input, reps, m, tr)
	return out, nil
}

// fastPathDeviation steps the fast path and the default serial path from
// the same generated state and returns how far their positions drifted
// apart, compared by original atom ID.
func fastPathDeviation(input string, seed int64, steps int) (float64, error) {
	sysA, cfg := generate(input, seed)
	sysB := sysA.Clone()
	fast, err := newSimulation(sysA, fastConfig(cfg, 1))
	if err != nil {
		return 0, err
	}
	defer fast.Close()
	ref, err := newSimulation(sysB, defaultConfig(cfg))
	if err != nil {
		return 0, err
	}
	defer ref.Close()
	for i := 0; i < steps; i++ {
		fast.Step()
		ref.Step()
	}
	return maxDeviation(ref.Sys, positionsInOriginalOrder(fast), positionsInOriginalOrder(ref)), nil
}

// pass is what one run of a fixed number of steps produced.
type pass struct {
	stepUS      []float64 // per-Step() wall, every step
	segRates    []float64 // steps/s per segment
	traced      func(seg int) bool
	rebuilds    int
	steps       int
	failedSteps int64
	energyDrift float64 // worst |E−E₀|/|E₀| seen at a boundary
}

// runPass steps sim through engineSegments equal segments at one stack
// position, timing every Step() and checking the total energy at every
// boundary. With a tracer, segments alternate untraced and traced; a traced
// segment's spans are made from its step records before its clock stops.
func runPass(sim *simulation, position, steps int, tr *tracer) pass {
	p := pass{steps: steps, stepUS: make([]float64, 0, steps), traced: alternate(tr != nil)}
	segLen := steps / engineSegments
	recs := make([]stepRecord, segLen)
	e0 := sim.TotalEnergy()
	rebuilds0 := sim.Rebuilds()
	for seg := 0; seg < engineSegments; seg++ {
		var sums [len(enginePhases)]float64
		for k, ph := range enginePhases {
			sums[k] = sim.PhaseWall[ph.ph].Sum()
		}
		rebuilds := sim.Rebuilds()
		start := time.Now()
		stepsAt(position, sim, recs)
		prev := start
		for i := range recs {
			r := &recs[i]
			p.stepUS = append(p.stepUS, float64(r.end.Sub(prev))/1e3)
			if p.traced(seg) {
				idx := int64(seg*segLen + i)
				at := tr.since(prev)
				id := tr.add(0, "core.step", at, tr.since(r.end), idx, stepTag(rebuilds, r.rebuilds))
				for k := range enginePhases {
					d := int64((r.phaseS[k] - sums[k]) * 1e9)
					tr.add(id, phaseSpanNames[k], at, at+d, idx, "synth")
					at += d
				}
			}
			prev, rebuilds, sums = r.end, r.rebuilds, r.phaseS
		}
		p.segRates = append(p.segRates, float64(segLen)/time.Since(start).Seconds())
		e := sim.TotalEnergy()
		drift := math.Abs(e-e0) / math.Abs(e0)
		if !(drift <= energyTolerance) { // NaN fails too
			p.failedSteps += int64(segLen)
		}
		if !(drift <= p.energyDrift) {
			p.energyDrift = drift
		}
	}
	p.rebuilds = sim.Rebuilds() - rebuilds0
	return p
}

var phaseSpanNames = func() (names [len(enginePhases)]string) {
	for k, ph := range enginePhases {
		names[k] = "core.phase." + ph.name
	}
	return names
}()

// stepTag classifies a step by whether the engine's rebuild counter moved
// across it.
func stepTag(rebuildsBefore, rebuildsAfter int) string {
	if rebuildsAfter != rebuildsBefore {
		return "rebuild"
	}
	return ""
}

// reportPass turns the measured pass into the end-to-end metrics.
func reportPass(p pass, m *metrics, out *outcome) {
	out.attempted += int64(p.steps)
	out.failed += p.failedSteps
	out.check("energy stays bounded at every segment boundary", p.failedSteps == 0,
		"worst |E-E0|/|E0| %.3g (limit %.0e)", p.energyDrift, energyTolerance)
	m.set("ops_per_s", median(p.segRates))
	sorted := append([]float64(nil), p.stepUS...)
	m.set("op_p50_us", percentile(sorted, 50))
	m.set("op_tail_us", sortedPercentile(sorted, 99))
	out.samples["ops_per_s"] = len(p.segRates)
	out.samples["op_p50_us"] = len(sorted)
	out.samples["op_tail_us"] = len(sorted)
	if c := cv(p.segRates); c > segmentCVCap {
		out.unresolved = append(out.unresolved, fmt.Sprintf("segment rate CV %.2f above %.2f", c, segmentCVCap))
	}
}

// rebuildBreakdown splits step times into the plain and the rebuilding
// population and returns their medians and the share of all step time that
// rebuild steps spent above a plain step.
func rebuildBreakdown(plainUS, rebuildUS []float64) (plainMed, rebuildMed, sharePct float64) {
	plainMed, rebuildMed = median(plainUS), median(rebuildUS)
	var total, extra float64
	for _, t := range plainUS {
		total += t
	}
	for _, t := range rebuildUS {
		total += t
		extra += t - plainMed
	}
	if total > 0 {
		sharePct = 100 * extra / total
	}
	return plainMed, rebuildMed, sharePct
}

// reportStepSpans derives the core.* step metrics from the recorded spans.
func reportStepSpans(tr *tracer, p pass, m *metrics) {
	plainMed, rebuildMed, share := rebuildBreakdown(tr.durations("core.step", ""), tr.durations("core.step", "rebuild"))
	m.set("core.step_plain_us", plainMed)
	m.set("core.step_rebuild_us", rebuildMed)
	m.set("core.rebuild_share_pct", share)
	if p.rebuilds > 0 {
		m.set("core.rebuild_every_steps", float64(p.steps)/float64(p.rebuilds))
	}
	for k, ph := range enginePhases {
		m.set("core.phase_"+ph.name+"_us", mean(tr.durations(phaseSpanNames[k], "synth")))
	}
	self := selfTimes(tr.spans)
	var stepNS, selfNS int64
	for _, s := range tr.spans {
		if s.Name == "core.step" {
			stepNS += s.End - s.Start
			selfNS += self[s.ID]
		}
	}
	if stepNS > 0 {
		m.set("core.phase_residual_pct", 100*float64(selfNS)/float64(stepNS))
	}
	m.set("bench.trace_overhead_pct", tracingCostPct(p.segRates, p.traced))
}

// parallelCounters snapshots the engine's own per-worker accumulators.
func parallelCounters(sim *simulation) (busy [][]time.Duration, wallS float64, contended int64) {
	for _, ph := range enginePhases {
		busy = append(busy, append([]time.Duration(nil), sim.WorkerBusy[ph.ph]...))
		wallS += sim.PhaseWall[ph.ph].Sum()
	}
	_, _, contended = sim.QueueStats()
	return busy, wallS, contended
}
