package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"mw/internal/report"
	"mw/internal/serve"
	"mw/internal/workload"
)

// ObserverServeResult is the §IV-A observer-effect methodology applied to
// the serving layer's request tracing: the same in-process closed loop with
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
// sampling, creates sessions Al-1000 tenants over HTTP, runs stepLoop and
// returns its mean request time plus the request count. Closing the server
// closes the sessions.
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
	base := "http://" + addr
	ids, err := createSessions(base, sessions)
	if err != nil {
		return 0, 0, err
	}
	// Same discipline as runObserverNative: collect, then hold GC off for
	// the timed region. The loop's HTTP+JSON traffic allocates enough that
	// whether the pacer fires a cycle inside a run is a whole-run several-%
	// artifact on a single-core host — noise that swamps the ~0.1% true
	// cost of 1-in-64 tracing. The tracing path's own allocations (trace
	// records, exemplars, ring entries) are still fully timed.
	runtime.GC()
	gcPct := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gcPct)
	return stepLoop(base, ids, conc, nruns)
}

// serveClient's timeout makes a wedged server fail the trial, not hang it.
var serveClient = &http.Client{Timeout: time.Minute}

func post(url string) (int, []byte, error) {
	resp, err := serveClient.Post(url, "", nil)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

func createSessions(base string, n int) ([]string, error) {
	ids := make([]string, n)
	for i := range ids {
		var created struct{ ID string }
		code, body, err := post(base + "/v1/sessions?workload=" + workload.Al1000().Name)
		if err == nil && code != http.StatusCreated {
			err = fmt.Errorf("create: status %d: %s", code, body)
		} else if err == nil {
			err = json.Unmarshal(body, &created)
		}
		if err != nil {
			return nil, err
		}
		ids[i] = created.ID
	}
	return ids, nil
}

// stepOnce POSTs one step request, retrying a 429 up to 16 times with a
// 10 ms·attempt backoff; any other non-200 is an error.
func stepOnce(url string) error {
	for attempt := 1; ; attempt++ {
		code, body, err := post(url)
		switch {
		case err != nil:
			return err
		case code == http.StatusOK:
			return nil
		case code != http.StatusTooManyRequests || attempt > 16:
			return fmt.Errorf("step: status %d: %s", code, body)
		}
		time.Sleep(time.Duration(10*attempt) * time.Millisecond)
	}
}

// stepLoop is the gate's closed loop: conc clients pull (session, round)
// indices from one counter and step that session once, until every session
// has been stepped nruns times. Only this phase is timed; create and close
// stay outside the wall. A failed step aborts the trial, so it never reads
// as a fast request. It returns wall/requests and the request count.
func stepLoop(base string, ids []string, conc, nruns int) (time.Duration, int64, error) {
	total := int64(len(ids) * nruns)
	var next, served atomic.Int64
	errc := make(chan error, conc)
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < total; i = next.Add(1) - 1 {
				if err := stepOnce(base + "/v1/sessions/" + ids[i%int64(len(ids))] + "/step?n=1"); err != nil {
					errc <- err
					next.Store(total) // the other clients stop pulling
					return
				}
				served.Add(1)
			}
		}()
	}
	wg.Wait()
	wall, n := time.Since(t0), served.Load()
	if len(errc) > 0 {
		return 0, 0, <-errc
	}
	return wall / time.Duration(max(n, 1)), n, nil // Gate rejects n == 0
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
