package experiments

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"mw/internal/report"
	"mw/internal/serve"
	"mw/internal/workload"
)

// ObserverServeResult is the §IV-A observer-effect methodology applied to
// the serving layer's request tracing: the same in-process load sweep with
// tracing off, with the production 1-in-64 sampling mwserved ships with,
// and with every request traced (TraceSample=1). "Overhead" is the paired
// increase in mean request service time. The gate holds the production
// mode under the same <2% budget the engine-side monitors live under; the
// trace-everything mode is the stress control — reported, never gated —
// exactly as observer-native treats its naive monitor (on a loaded or
// single-core host its paired ratios are dominated by scheduler noise).
type ObserverServeResult struct {
	Workload    string
	Sessions    int
	Concurrency int
	Trials      int
	OffWall     time.Duration // min-of-trials mean request service time, tracing off
	SampledWall time.Duration // TraceSample=64, the production default
	EveryWall   time.Duration // TraceSample=1, the stress control
	SampledPct  float64
	EveryPct    float64
	Requests    int64 // sanity: the traced modes really served requests
	BudgetPct   float64
	Report      string
}

// Gate returns an error if production-sampled request tracing breached the
// overhead budget — the `make telemetry-overhead` serving-side gate.
func (r *ObserverServeResult) Gate() error {
	if r.SampledPct >= r.BudgetPct {
		return fmt.Errorf(
			"serve observer effect: 1-in-64 request tracing costs %.2f%% on %s c=%d (budget %.1f%%); off=%v sampled=%v",
			r.SampledPct, r.Workload, r.Concurrency, r.BudgetPct, r.OffWall, r.SampledWall)
	}
	if r.Requests == 0 {
		return fmt.Errorf("serve observer effect: traced modes served no requests — the gate measured nothing")
	}
	return nil
}

// observerServe defaults: Al-1000 steps are ~1 ms of real compute, so the
// per-request tracing cost (a few µs of stamps, one ring publish, a fenced
// cursor drain) is measured against a production-shaped denominator.
const (
	observerServeSessions = 24
	observerServeConc     = 8
	observerServeNRuns    = 8
	observerServeTrials   = 7
)

// runObserverServe boots one in-process server with the given trace
// sampling, runs a single-level sweep, and returns the mean request
// service time plus the request count.
func runObserverServe(traceSample, sessions, conc, nruns int) (time.Duration, int64, error) {
	srv := serve.NewServer(serve.Config{
		MaxSessions: sessions + 8,
		GCInterval:  -1,
		TraceSample: traceSample,
	})
	defer srv.Close()
	httpSrv, addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	defer httpSrv.Close()
	// Same discipline as runObserverNative: collect, then hold GC off for
	// the timed region. The sweep's HTTP+JSON traffic allocates enough that
	// whether the pacer fires a cycle inside a run is a whole-run several-%
	// artifact on a single-core host — noise that swamps the ~0.1% true
	// cost of 1-in-64 tracing. The tracing path's own allocations (trace
	// records, exemplars, ring entries) are still fully timed.
	runtime.GC()
	gcPct := debug.SetGCPercent(-1)
	rep, err := serve.RunSweep("http://"+addr, serve.SweepOptions{
		Workload:    workload.Al1000().Name,
		Sessions:    sessions,
		StepsPerReq: 1,
		NRuns:       nruns,
		Concurrency: []int{conc},
		Retries:     16,
	})
	debug.SetGCPercent(gcPct)
	if err != nil {
		return 0, 0, err
	}
	row := rep.Rows[0]
	if row.ReqPerSec <= 0 {
		return 0, 0, fmt.Errorf("sweep reported %f req/s", row.ReqPerSec)
	}
	return time.Duration(1e9 / row.ReqPerSec), row.Requests, nil
}

// ObserverServe measures the serving layer's request-tracing observer
// effect. trials of 0 selects the default; budgetPct of 0 selects 2%.
func ObserverServe(trials int, budgetPct float64) (*ObserverServeResult, error) {
	if trials <= 0 {
		trials = observerServeTrials
	}
	if budgetPct <= 0 {
		budgetPct = 2.0
	}
	res := &ObserverServeResult{
		Workload:    workload.Al1000().Name,
		Sessions:    observerServeSessions,
		Concurrency: observerServeConc,
		Trials:      trials,
		BudgetPct:   budgetPct,
	}

	// Warm-up: pool spin-up, page faults, connection pool.
	if _, _, err := runObserverServe(-1, res.Sessions, res.Concurrency, 1); err != nil {
		return nil, err
	}

	// Paired trials, mode order rotated, same estimator as the engine-side
	// gate: host drift moves the modes of one trial together, the paired
	// ratio cancels it, and the min-wall floor bounds small-sample medians.
	const nModes = 3
	samples := [nModes]struct {
		traceSample int
		walls       []time.Duration
	}{
		{-1, make([]time.Duration, trials)},
		{64, make([]time.Duration, trials)},
		{1, make([]time.Duration, trials)},
	}
	for trial := 0; trial < trials; trial++ {
		for i := 0; i < nModes; i++ {
			m := (trial + i) % nModes
			d, requests, err := runObserverServe(
				samples[m].traceSample, res.Sessions, res.Concurrency, observerServeNRuns)
			if err != nil {
				return nil, err
			}
			samples[m].walls[trial] = d
			if samples[m].traceSample > 0 {
				res.Requests += requests
			}
		}
	}
	res.OffWall = minWall(samples[0].walls)
	res.SampledWall = minWall(samples[1].walls)
	res.EveryWall = minWall(samples[2].walls)
	res.SampledPct = overheadEstimate(samples[1].walls, samples[0].walls)
	res.EveryPct = overheadEstimate(samples[2].walls, samples[0].walls)

	t := report.NewTable(
		fmt.Sprintf("Serve request-tracing observer effect (%s, %d sessions, c=%d, %d paired trials, budget %.1f%%)",
			res.Workload, res.Sessions, res.Concurrency, trials, budgetPct),
		"Mode", "Mean request", "Overhead %", "Gated")
	t.AddRow("tracing off", res.OffWall, 0.0, "-")
	t.AddRow("TraceSample=64 (prod)", res.SampledWall, res.SampledPct, "yes")
	t.AddRow("TraceSample=1 (stress)", res.EveryWall, res.EveryPct, "no")
	verdict := "PASS: production-sampled request tracing within budget"
	if err := res.Gate(); err != nil {
		verdict = "FAIL: " + err.Error()
	}
	res.Report = t.String() + fmt.Sprintf(
		"\n%s\npaper §IV-A applied to the service: tracing must not distort the\nlatency it exists to explain. The gated mode is the deployed 1-in-64\nsampling; the stress mode traces every request (64× the deployed rate)\nand bounds the whole observer path — context generation, stamps,\nexemplar stores, trace-ring publish, fenced tenant phase drain.\n", verdict)
	return res, nil
}
