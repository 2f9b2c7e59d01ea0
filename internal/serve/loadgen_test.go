package serve

import (
	"net/url"
	"testing"
	"time"
)

// TestRunSweep drives a full sweep against an in-process server and
// validates the report — the same path mwload and the observer-serve
// experiment use.
func TestRunSweep(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	rep, err := RunSweep(ts.URL, SweepOptions{
		Workload:      "lj-gas",
		WorkloadQuery: url.Values{"n": {"3"}},
		Sessions:      6,
		StepsPerReq:   2,
		NRuns:         2,
		Concurrency:   []int{2, 4},
		Retries:       4,
		Client:        ts.Client(),
	})
	if err != nil {
		t.Fatalf("RunSweep: %v", err)
	}
	if err := rep.Validate(); err != nil {
		t.Fatalf("report failed validation: %v", err)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("%d rows, want 2", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		if row.Requests != 12 { // 6 sessions × 2 runs
			t.Errorf("c=%d: %d requests, want 12", row.Concurrency, row.Requests)
		}
		if row.StepsPerSec <= 0 || row.P99us <= 0 {
			t.Errorf("c=%d: empty throughput/latency: %+v", row.Concurrency, row)
		}
	}
}

// TestAttrSplit pins the attribution decomposition on synthetic samples:
// ingress is the client-side e2e minus the server wall (clamped at zero),
// the p99-rank sum is exactly ingress+queue+batch+compute, and the
// residual is the in-server slack as a share of e2e.
func TestAttrSplit(t *testing.T) {
	// Sorted by E2EUs, as runLevel guarantees. The last (p99-rank at n=4)
	// sample: e2e 1000, wall 900 → ingress 100; components 50+30+700=780;
	// sum 880; residual (1000−880)/1000 = 12%.
	samples := []stepSample{
		{E2EUs: 100, WallUs: 90, QueueUs: 5, BatchUs: 2, ComputeUs: 80},
		{E2EUs: 200, WallUs: 210, QueueUs: 8, BatchUs: 3, ComputeUs: 150}, // wall > e2e → ingress 0
		{E2EUs: 500, WallUs: 450, QueueUs: 20, BatchUs: 10, ComputeUs: 400, TraceID: "aa"},
		{E2EUs: 1000, WallUs: 900, QueueUs: 50, BatchUs: 30, ComputeUs: 700, TraceID: "bb"},
	}
	a := attrSplit(samples)
	if a.P99TraceID != "bb" || a.P99E2Eus != 1000 {
		t.Fatalf("p99-rank sample = %q/%g, want bb/1000", a.P99TraceID, a.P99E2Eus)
	}
	if a.P99IngressUs != 100 {
		t.Errorf("P99IngressUs = %g, want 100 (e2e − wall)", a.P99IngressUs)
	}
	if want := 100.0 + 50 + 30 + 700; a.P99SumUs != want {
		t.Errorf("P99SumUs = %g, want %g (ingress+qw+bw+comp)", a.P99SumUs, want)
	}
	if want := 12.0; a.ResidualPct != want {
		t.Errorf("ResidualPct = %g, want %g", a.ResidualPct, want)
	}
	if (stepSample{E2EUs: 200, WallUs: 210}).IngressUs() != 0 {
		t.Error("ingress not clamped at zero when wall exceeds e2e")
	}
	if a.IngressP50us > a.IngressP99us || a.QueueWaitP50us > a.QueueWaitP99us ||
		a.BatchWaitP50us > a.BatchWaitP99us || a.ComputeP50us > a.ComputeP99us {
		t.Errorf("component percentiles out of order: %+v", a)
	}
	if a.ComputeP99us != 700 || a.QueueWaitP99us != 50 {
		t.Errorf("component p99s = comp %g qw %g, want 700/50", a.ComputeP99us, a.QueueWaitP99us)
	}
}

// TestSweepValidateCatchesBadReports pins Validate's checks.
func TestSweepValidateCatchesBadReports(t *testing.T) {
	good := SweepReport{
		Sessions: 2, NRuns: 1, StepsPerReq: 1,
		Rows: []SweepRow{{Concurrency: 1, Requests: 2, WallSeconds: 0.1, StepsPerSec: 20, P50us: 1, P99us: 2, P999us: 3}},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("good report rejected: %v", err)
	}
	bad := []SweepReport{
		{},
		{Sessions: 2, NRuns: 1, Rows: []SweepRow{{Concurrency: 1, Requests: 1, WallSeconds: 0.1, StepsPerSec: 20}}},
		{Sessions: 2, NRuns: 1, Rows: []SweepRow{{Concurrency: 1, Requests: 2, WallSeconds: 0.1, StepsPerSec: 20, Errors: 1}}},
		{Sessions: 2, NRuns: 1, Rows: []SweepRow{{Concurrency: 1, Requests: 2, WallSeconds: 0.1, StepsPerSec: 20, P50us: 5, P99us: 2, P999us: 3}}},
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("bad report %d passed validation", i)
		}
	}
}

// TestOversubscribeProbe forces shedding: queue depth 1 and tiny batches,
// so during each batch's barrier the queue is full and a no-retry burst
// must see 429s — and the server must stay healthy.
func TestOversubscribeProbe(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers:    1,
		QueueDepth: 1,
		MaxBatch:   2,
	})
	// 50 steps per request keeps each batch on the pool for a few
	// milliseconds, so the burst reliably finds the 1-deep queue full.
	shed, retryAfter, healthy, err := OversubscribeProbe(ts.URL, SweepOptions{
		Workload:      "lj-gas",
		WorkloadQuery: url.Values{"n": {"3"}},
		Sessions:      4,
		StepsPerReq:   50,
		Client:        ts.Client(),
	}, 24)
	if err != nil {
		t.Fatalf("probe: %v", err)
	}
	if !healthy {
		t.Error("server unhealthy after burst")
	}
	if shed == 0 {
		t.Error("no requests shed despite queue depth 1 under a 24-client burst")
	}
	if shed > 0 && len(retryAfter) == 0 {
		t.Error("shed requests recorded no Retry-After values")
	}
	for v, n := range retryAfter {
		if v == "(absent)" {
			t.Errorf("%d shed responses carried no Retry-After header", n)
		}
	}
}

// TestWaitHealthyTimeout verifies the failure path against a dead address.
func TestWaitHealthyTimeout(t *testing.T) {
	err := WaitHealthy("http://127.0.0.1:1", 100*time.Millisecond)
	if err == nil {
		t.Fatal("WaitHealthy succeeded against a closed port")
	}
}
