package experiments

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"mw/internal/core"
	"mw/internal/perfmon"
	"mw/internal/report"
	"mw/internal/telemetry"
	"mw/internal/tracing"
	"mw/internal/workload"
)

// ObserverNativeRow is one workload's measured observer effect for the real
// telemetry layer: the same run with telemetry off, with the ring-buffer
// Recorder, with the full structured Tracer stacked on a recorder (spans,
// straggler attribution, flight ring, affinity probe), and with the
// deliberately JaMON-like mutex-per-event control: perfmon's synchronized
// monitor behind a MonitorSink ("Naive").
type ObserverNativeRow struct {
	Workload          string
	OffWall           time.Duration // min-of-trials uninstrumented wall
	RingWall          time.Duration
	TracerWall        time.Duration
	NaiveWall         time.Duration
	RingOverheadPct   float64 // (ring-off)/off, clamped at 0
	TracerOverheadPct float64
	NaiveOverheadPct  float64
	RingChunkEvents   int64 // sanity: the recorder really saw the run
	TracerSteps       int64 // sanity: the tracer really assembled records
}

// ObserverNativeResult is the §IV-A observer-effect methodology applied to
// internal/telemetry itself, with a pass/fail budget on the ring monitor.
type ObserverNativeResult struct {
	Rows      []ObserverNativeRow
	BudgetPct float64
	Report    string
}

// Gate returns an error if the ring-buffer recorder or the structured tracer
// exceeded the overhead budget on any workload — the regression gate
// `make telemetry-overhead` fails the build on.
func (r *ObserverNativeResult) Gate() error {
	for _, row := range r.Rows {
		if row.RingOverheadPct >= r.BudgetPct {
			return fmt.Errorf(
				"telemetry observer effect: ring recorder costs %.2f%% on %s (budget %.1f%%); off=%v ring=%v",
				row.RingOverheadPct, row.Workload, r.BudgetPct, row.OffWall, row.RingWall)
		}
		if row.TracerOverheadPct >= r.BudgetPct {
			return fmt.Errorf(
				"telemetry observer effect: structured tracer costs %.2f%% on %s (budget %.1f%%); off=%v tracer=%v",
				row.TracerOverheadPct, row.Workload, r.BudgetPct, row.OffWall, row.TracerWall)
		}
		if row.RingChunkEvents == 0 {
			return fmt.Errorf("telemetry observer effect: recorder saw no chunk events on %s — the gate measured nothing", row.Workload)
		}
		if row.TracerSteps == 0 {
			return fmt.Errorf("telemetry observer effect: tracer assembled no step records on %s — the gate measured nothing", row.Workload)
		}
	}
	return nil
}

// observerNativeSteps/Trials are the defaults; paired trials with
// interleaved modes absorb most scheduler noise on a busy host.
const (
	observerNativeSteps  = 25
	observerNativeTrials = 7
)

// runObserverNative does one timed run of a freshly built benchmark with the
// given sink. Only Run is timed — constructing the simulation (bootstrap
// forces, pool spin-up) is setup the monitors don't see either.
func runObserverNative(mk func() *workload.Benchmark, sink telemetry.Sink, steps int) (time.Duration, error) {
	// The production configuration is what the budget is about: default
	// chunk granularity, 4 workers. Shrinking ChunkAtoms to amplify the
	// event rate makes every monitor fail (at sub-µs chunks even ~35ns per
	// event is >2%) and measures a configuration nobody runs.
	b := mk()
	cfg := b.Cfg
	cfg.Threads = 4
	cfg.Telemetry = sink
	sim, err := core.New(b.Sys, cfg)
	if err != nil {
		return 0, err
	}
	defer sim.Close()
	// Collect, then hold GC off for the timed region. The recorder keeps a
	// couple hundred KB of rings live, which is enough to shift whether the
	// pacer fires a cycle inside a ~100ms run — a whole-run ±7% artifact
	// that has nothing to do with per-event cost and flips between process
	// invocations. Each monitor's inline cost (atomics for the ring; mutex,
	// map and time.Now work for the naive control) is still fully timed.
	runtime.GC()
	gcPct := debug.SetGCPercent(-1)
	start := time.Now()
	sim.Run(steps)
	d := time.Since(start)
	debug.SetGCPercent(gcPct)
	return d, nil
}

// ObserverNative measures the observer effect of the live telemetry layer on
// the paper's three benchmarks. steps and trials of 0 select defaults;
// budgetPct of 0 selects the 2% budget.
func ObserverNative(steps, trials int, budgetPct float64) (*ObserverNativeResult, error) {
	if steps <= 0 {
		steps = observerNativeSteps
	}
	if trials <= 0 {
		trials = observerNativeTrials
	}
	if budgetPct <= 0 {
		budgetPct = 2.0
	}
	res := &ObserverNativeResult{BudgetPct: budgetPct}

	// stepsMul stretches the cheap workloads so every timed run is tens of
	// milliseconds: a ~7ms nanocar run drowns a 2% effect in timer and
	// scheduler noise; at 8× the signal clears it.
	workloads := []struct {
		name     string
		mk       func() *workload.Benchmark
		stepsMul int
	}{
		{"salt", workload.Salt, 1},
		{"nanocar", workload.Nanocar, 8},
		{"Al-1000", workload.Al1000, 8},
	}

	for _, wl := range workloads {
		steps := steps * wl.stepsMul
		// Warm up caches, the allocator and the scheduler once per workload.
		if _, err := runObserverNative(wl.mk, nil, steps); err != nil {
			return nil, err
		}

		row := ObserverNativeRow{Workload: wl.name}
		// Each trial runs all four modes back-to-back (order rotated across
		// trials) and contributes one PAIRED overhead sample per monitor:
		// instrumented wall over that same trial's uninstrumented wall. Host
		// drift on this class of machine swings absolute walls by ±10%
		// between trials but moves the adjacent runs of one trial together,
		// so the paired ratio cancels it; the median over trials then drops
		// the preemption outliers min-of-trials is fragile to.
		const nModes = 4
		offW := make([]time.Duration, trials)
		ringW := make([]time.Duration, trials)
		tracerW := make([]time.Duration, trials)
		naiveW := make([]time.Duration, trials)
		for trial := 0; trial < trials; trial++ {
			for i := 0; i < nModes; i++ {
				switch (trial + i) % nModes {
				case 0:
					d, err := runObserverNative(wl.mk, nil, steps)
					if err != nil {
						return nil, err
					}
					offW[trial] = d
				case 1:
					rec := telemetry.NewRecorder(4, core.PhaseNames())
					d, err := runObserverNative(wl.mk, rec, steps)
					if err != nil {
						return nil, err
					}
					ringW[trial] = d
					for _, wv := range rec.Snapshot(0).PerWorker {
						row.RingChunkEvents += wv.Chunks
					}
				case 2:
					// The full production tracer: spans, straggler
					// attribution, ring drain, affinity probe, anomaly
					// detection armed (FlightDir empty, so anomalies are
					// counted, never dumped mid-measurement).
					tr := tracing.New(telemetry.NewRecorder(4, core.PhaseNames()), tracing.Config{})
					d, err := runObserverNative(wl.mk, tr, steps)
					if err != nil {
						return nil, err
					}
					tracerW[trial] = d
					row.TracerSteps += tr.TotalSteps()
				case 3:
					d, err := runObserverNative(wl.mk, perfmon.NewMonitorSink(perfmon.NewSyncMonitor()), steps)
					if err != nil {
						return nil, err
					}
					naiveW[trial] = d
				}
			}
		}
		row.OffWall = minWall(offW)
		row.RingWall = minWall(ringW)
		row.TracerWall = minWall(tracerW)
		row.NaiveWall = minWall(naiveW)
		row.RingOverheadPct = overheadEstimate(ringW, offW)
		row.TracerOverheadPct = overheadEstimate(tracerW, offW)
		row.NaiveOverheadPct = overheadEstimate(naiveW, offW)
		res.Rows = append(res.Rows, row)
	}

	t := report.NewTable(
		fmt.Sprintf("Telemetry observer effect (native engine, %d steps × %d paired trials, budget %.1f%%)",
			steps, trials, budgetPct),
		"Workload", "Off", "Ring", "Tracer", "Naive", "Ring ovh %", "Tracer ovh %", "Naive ovh %", "Chunk events")
	for _, row := range res.Rows {
		t.AddRow(row.Workload, row.OffWall, row.RingWall, row.TracerWall, row.NaiveWall,
			row.RingOverheadPct, row.TracerOverheadPct, row.NaiveOverheadPct, row.RingChunkEvents)
	}
	verdict := "PASS: ring recorder and structured tracer within budget on every workload"
	if err := res.Gate(); err != nil {
		verdict = "FAIL: " + err.Error()
	}
	res.Report = t.String() + fmt.Sprintf(
		"\n%s\npaper §IV-A: a monitor is only usable if it does not distort what it\nmeasures. The ring recorder (per-worker lock-free rings + atomics) and\nthe structured tracer stacked on it (span timeline, straggler\nattribution, flight ring, affinity probe) must stay under the budget;\nthe naive monitor (one mutex + string-keyed maps per event — JaMON's\ndesign) is run as the control and is expected to cost visibly more.\n", verdict)
	return res, nil
}

// minWall returns the smallest duration of a trial series (0 if empty).
func minWall(ds []time.Duration) time.Duration {
	var best time.Duration
	for _, d := range ds {
		if best == 0 || (d > 0 && d < best) {
			best = d
		}
	}
	return best
}

// overheadEstimate combines two noise-robust estimators of the monitor's
// true cost and keeps the smaller, clamped at 0. The median of per-trial
// paired ratios cancels slow host drift but a couple of preempted trials
// can still push a small-sample median up; the ratio of per-mode minimum
// walls converges on the true floor as trials grow but is inflated when
// one mode never lands a quiet slot. Scheduler noise only ever inflates
// an overhead estimate, and it rarely inflates both the same way, so the
// smaller one is the better bound — while a genuine per-event cost (the
// naive control measured 2.7–7.5% on nanocar on a 1-CPU host) moves both
// together and still trips the gate.
func overheadEstimate(instrumented, off []time.Duration) float64 {
	med := medianOverheadPct(instrumented, off)
	iMin, oMin := minWall(instrumented), minWall(off)
	if oMin <= 0 || iMin <= 0 {
		return med
	}
	floor := (float64(iMin) - float64(oMin)) / float64(oMin) * 100
	if floor < 0 {
		floor = 0
	}
	if floor < med {
		return floor
	}
	return med
}

// medianOverheadPct returns the median of the per-trial paired overhead
// ratios, in percent, clamped at 0 (a negative median is timing noise, not
// a speedup).
func medianOverheadPct(instrumented, off []time.Duration) float64 {
	var ratios []float64
	for i := range instrumented {
		if i < len(off) && off[i] > 0 && instrumented[i] > 0 {
			ratios = append(ratios, (float64(instrumented[i])-float64(off[i]))/float64(off[i])*100)
		}
	}
	if len(ratios) == 0 {
		return 0
	}
	sort.Float64s(ratios)
	var med float64
	if n := len(ratios); n%2 == 1 {
		med = ratios[n/2]
	} else {
		med = (ratios[n/2-1] + ratios[n/2]) / 2
	}
	if med < 0 {
		return 0
	}
	return med
}
