package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mw/internal/xyz"
)

// newTestServer boots a Server plus an httptest frontend and tears both
// down with the test. The background GC sweeper is off unless the config
// asks for it — eviction tests drive EvictIdle directly.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.GCInterval == 0 {
		cfg.GCInterval = -1
	}
	s := NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// doReq issues one request and returns status and body.
func doReq(t *testing.T, client *http.Client, method, url string, body io.Reader) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatalf("building %s %s: %v", method, url, err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s %s body: %v", method, url, err)
	}
	return resp.StatusCode, b
}

// createTestSession creates a tiny lj-gas session and returns its id.
func createTestSession(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	code, body := doReq(t, ts.Client(), http.MethodPost, ts.URL+"/v1/sessions?workload=lj-gas&n=3", nil)
	if code != http.StatusCreated {
		t.Fatalf("create: status %d, body %s", code, body)
	}
	var created struct {
		ID    string `json:"id"`
		Atoms int    `json:"atoms"`
	}
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatalf("create response: %v", err)
	}
	if !validSessionID(created.ID) {
		t.Fatalf("create returned malformed id %q", created.ID)
	}
	if created.Atoms != 27 {
		t.Fatalf("lj-gas n=3 session has %d atoms, want 27", created.Atoms)
	}
	return created.ID
}

// TestSessionLifecycle walks the whole tenant story end to end over real
// HTTP: create → N steps → snapshot (JSON and XYZ) → stream → close, then
// double-close and use-after-close.
func TestSessionLifecycle(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	id := createTestSession(t, ts)
	base := ts.URL + "/v1/sessions/" + id

	const nSteps = 3
	for i := 1; i <= nSteps; i++ {
		code, body := doReq(t, ts.Client(), http.MethodPost, base+"/step", nil)
		if code != http.StatusOK {
			t.Fatalf("step %d: status %d, body %s", i, code, body)
		}
		var res struct {
			Step      int     `json:"step"`
			PE        float64 `json:"pe"`
			BatchSize int     `json:"batch_size"`
		}
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatalf("step %d response: %v", i, err)
		}
		if res.Step != i {
			t.Errorf("after step request %d engine reports step %d", i, res.Step)
		}
		if res.BatchSize < 1 {
			t.Errorf("step %d: batch size %d", i, res.BatchSize)
		}
	}

	// Info reflects the steps served.
	code, body := doReq(t, ts.Client(), http.MethodGet, base, nil)
	if code != http.StatusOK {
		t.Fatalf("info: status %d", code)
	}
	var info sessionInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatalf("info response: %v", err)
	}
	if info.Step != nSteps {
		t.Errorf("info.Step = %d, want %d", info.Step, nSteps)
	}

	// JSON snapshot: full dynamical state at the current step.
	code, body = doReq(t, ts.Client(), http.MethodGet, base+"/snapshot", nil)
	if code != http.StatusOK {
		t.Fatalf("snapshot: status %d", code)
	}
	var snap snapshotBody
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("snapshot response: %v", err)
	}
	if snap.Step != nSteps || len(snap.Pos) != 27 || len(snap.Vel) != 27 || len(snap.Force) != 27 {
		t.Errorf("snapshot step=%d len(pos)=%d len(vel)=%d len(force)=%d, want step=%d and 27 atoms",
			snap.Step, len(snap.Pos), len(snap.Vel), len(snap.Force), nSteps)
	}

	// XYZ snapshot parses as exactly one 27-atom frame.
	code, body = doReq(t, ts.Client(), http.MethodGet, base+"/snapshot.xyz", nil)
	if code != http.StatusOK {
		t.Fatalf("snapshot.xyz: status %d", code)
	}
	frames, err := xyz.ReadFrames(strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("snapshot.xyz did not parse: %v", err)
	}
	if len(frames) != 1 || len(frames[0].Pos) != 27 {
		t.Fatalf("snapshot.xyz: %d frames, want 1 × 27 atoms", len(frames))
	}

	// Stream: frames × every advances the engine between frames.
	code, body = doReq(t, ts.Client(), http.MethodGet, base+"/stream?frames=3&every=2", nil)
	if code != http.StatusOK {
		t.Fatalf("stream: status %d", code)
	}
	frames, err = xyz.ReadFrames(strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("stream did not parse as XYZ: %v", err)
	}
	if len(frames) != 3 {
		t.Fatalf("stream returned %d frames, want 3", len(frames))
	}
	// 3 steps + 2 frames × 2 steps each.
	code, body = doReq(t, ts.Client(), http.MethodGet, base, nil)
	if code != http.StatusOK {
		t.Fatalf("info after stream: status %d", code)
	}
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatalf("info response: %v", err)
	}
	if want := int64(nSteps + 2*2); info.Step != want {
		t.Errorf("after stream info.Step = %d, want %d", info.Step, want)
	}

	// Per-tenant telemetry snapshot exists and has engine phases.
	code, body = doReq(t, ts.Client(), http.MethodGet, base+"/telemetry.json", nil)
	if code != http.StatusOK {
		t.Fatalf("tenant telemetry: status %d", code)
	}
	var tele struct {
		Steps  int64 `json:"steps"`
		Phases []struct {
			Phase string `json:"phase"`
			Count int64  `json:"count"`
		} `json:"phases"`
	}
	if err := json.Unmarshal(body, &tele); err != nil {
		t.Fatalf("tenant telemetry response: %v", err)
	}
	if len(tele.Phases) == 0 {
		t.Error("tenant telemetry has no phases")
	}

	// Close → 204, double-close → clean 404, step-after-close → 404.
	code, _ = doReq(t, ts.Client(), http.MethodDelete, base, nil)
	if code != http.StatusNoContent {
		t.Fatalf("close: status %d, want 204", code)
	}
	code, _ = doReq(t, ts.Client(), http.MethodDelete, base, nil)
	if code != http.StatusNotFound {
		t.Fatalf("double close: status %d, want 404", code)
	}
	code, _ = doReq(t, ts.Client(), http.MethodPost, base+"/step", nil)
	if code != http.StatusNotFound {
		t.Fatalf("step after close: status %d, want 404", code)
	}
	if n := s.SessionCount(); n != 0 {
		t.Errorf("%d sessions left after close", n)
	}
}

// TestIdleGCEviction verifies that idle sessions are evicted and evicted
// ids answer 404 afterwards.
func TestIdleGCEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, IdleTimeout: time.Millisecond, GCInterval: -1})
	idIdle := createTestSession(t, ts)
	idBusy := createTestSession(t, ts)

	time.Sleep(5 * time.Millisecond)
	// Touch one session so only the other is stale.
	if code, _ := doReq(t, ts.Client(), http.MethodPost, ts.URL+"/v1/sessions/"+idBusy+"/step", nil); code != http.StatusOK {
		t.Fatalf("keep-alive step: status %d", code)
	}
	if n := s.EvictIdle(); n != 1 {
		t.Fatalf("EvictIdle evicted %d sessions, want 1", n)
	}
	if code, _ := doReq(t, ts.Client(), http.MethodGet, ts.URL+"/v1/sessions/"+idIdle, nil); code != http.StatusNotFound {
		t.Errorf("evicted session answers %d, want 404", code)
	}
	if code, _ := doReq(t, ts.Client(), http.MethodGet, ts.URL+"/v1/sessions/"+idBusy, nil); code != http.StatusOK {
		t.Errorf("live session answers %d, want 200", code)
	}
	st := s.StatsNow()
	if st.EvictedTotal != 1 {
		t.Errorf("stats report %d evictions, want 1", st.EvictedTotal)
	}
}

// TestBackgroundGCSweeper exercises the gcLoop path end to end.
func TestBackgroundGCSweeper(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, IdleTimeout: time.Millisecond, GCInterval: 5 * time.Millisecond})
	createTestSession(t, ts)
	deadline := time.Now().Add(2 * time.Second)
	for s.SessionCount() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("background sweeper never evicted the idle session")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestEnqueueSheds verifies admission control at the unit level: with no
// batcher draining the queue, a full queue sheds non-blocking enqueues
// with 429 and counts them.
func TestEnqueueSheds(t *testing.T) {
	// Hand-built server: queue capacity 1 and no batcher goroutine, so the
	// queue state is fully deterministic.
	s := &Server{
		cfg:   Config{QueueDepth: 1}.withDefaults(),
		stepQ: make(chan *stepReq, 1),
		quit:  make(chan struct{}),
	}
	rq := func() *stepReq { return &stepReq{done: make(chan stepResult, 1)} }
	if hErr := s.enqueue(rq(), false); hErr != nil {
		t.Fatalf("first enqueue failed: %d %s", hErr.code, hErr.msg)
	}
	hErr := s.enqueue(rq(), false)
	if hErr == nil || hErr.code != http.StatusTooManyRequests {
		t.Fatalf("second enqueue = %+v, want 429", hErr)
	}
	if got := s.shed.Load(); got != 1 {
		t.Errorf("shed counter = %d, want 1", got)
	}
	// The 429 must carry Retry-After.
	rec := httptest.NewRecorder()
	hErr.write(rec)
	if got := rec.Header().Get("Retry-After"); got != retryAfter {
		t.Errorf("Retry-After = %q, want %q", got, retryAfter)
	}
}

// TestBurstSheds429 is admission control over real HTTP: with queue depth
// 1 and two-request batches, a no-retry burst of 24 one-shot 50-step
// requests (each batch holds the pool for milliseconds) must find the
// queue full. Every shed response must carry the Retry-After hint, no
// request may fail any other way, and the server must still answer
// /healthz right after — it degrades by refusing work, not by collapsing.
func TestBurstSheds429(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, MaxBatch: 2})
	ids := make([]string, 4)
	for i := range ids {
		ids[i] = createTestSession(t, ts)
	}
	type reply struct {
		code       int
		retryAfter string
		err        error
	}
	const burst = 24
	replies := make(chan reply, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			resp, err := ts.Client().Post(ts.URL+"/v1/sessions/"+id+"/step?n=50", "", nil)
			if err != nil {
				replies <- reply{err: err}
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			replies <- reply{code: resp.StatusCode, retryAfter: resp.Header.Get("Retry-After")}
		}(ids[i%len(ids)])
	}
	wg.Wait()
	close(replies)
	shed := 0
	for r := range replies {
		switch {
		case r.err != nil:
			t.Errorf("burst request: %v", r.err)
		case r.code == http.StatusTooManyRequests:
			shed++
			if r.retryAfter != retryAfter {
				t.Errorf("shed response Retry-After = %q, want %q", r.retryAfter, retryAfter)
			}
		case r.code != http.StatusOK:
			t.Errorf("burst request: status %d, want 200 or 429", r.code)
		}
	}
	if shed == 0 {
		t.Errorf("no request of a %d-request burst shed at queue depth 1", burst)
	}
	if code, body := doReq(t, ts.Client(), http.MethodGet, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Errorf("/healthz after the burst: status %d (%s)", code, body)
	}
}

// TestSessionCap verifies the MaxSessions admission limit sheds creates
// with 429.
func TestSessionCap(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxSessions: 2})
	createTestSession(t, ts)
	createTestSession(t, ts)
	code, body := doReq(t, ts.Client(), http.MethodPost, ts.URL+"/v1/sessions?workload=lj-gas&n=3", nil)
	if code != http.StatusTooManyRequests {
		t.Fatalf("create over cap: status %d (%s), want 429", code, body)
	}
}

// TestStatsAndMetrics checks the service observability surface: /v1/stats
// counters move, /metrics carries both serve_* and recorder series.
func TestStatsAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	id := createTestSession(t, ts)
	if code, _ := doReq(t, ts.Client(), http.MethodPost, ts.URL+"/v1/sessions/"+id+"/step?n=2", nil); code != http.StatusOK {
		t.Fatalf("step: status %d", code)
	}

	code, body := doReq(t, ts.Client(), http.MethodGet, ts.URL+"/v1/stats", nil)
	if code != http.StatusOK {
		t.Fatalf("/v1/stats: status %d", code)
	}
	var st Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("stats response: %v", err)
	}
	if st.ActiveSessions != 1 || st.CreatedTotal != 1 || st.StepsTotal != 2 || st.Batches < 1 {
		t.Errorf("stats = %+v, want 1 session, 1 created, 2 steps, ≥1 batch", st)
	}
	if st.StepLatency.Count != 1 || st.StepLatency.P99Us <= 0 {
		t.Errorf("step latency summary = %+v, want 1 sample with positive p99", st.StepLatency)
	}

	code, body = doReq(t, ts.Client(), http.MethodGet, ts.URL+"/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	for _, want := range []string{
		"serve_sessions_active 1",
		"serve_steps_total 2",
		"serve_step_latency_seconds_count 1",
		"mw_", // the service recorder's series follow
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	code, body = doReq(t, ts.Client(), http.MethodGet, ts.URL+"/telemetry.json", nil)
	if code != http.StatusOK {
		t.Fatalf("/telemetry.json: status %d", code)
	}
	var tele struct {
		Phases []struct {
			Phase string `json:"phase"`
		} `json:"phases"`
	}
	if err := json.Unmarshal(body, &tele); err != nil {
		t.Fatalf("telemetry response: %v", err)
	}
	var names []string
	for _, p := range tele.Phases {
		names = append(names, p.Phase)
	}
	if fmt.Sprint(names) != fmt.Sprint(svcPhases()) {
		t.Errorf("service phases = %v, want %v", names, svcPhases())
	}
}

// TestCreateFromModel uploads an MML document and runs it.
func TestCreateFromModel(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	model := `{"version":1,"name":"pair","box":{"l":[20,20,20],"periodic":true},
		"atoms":[{"el":"Ar","p":[8,10,10]},{"el":"Ar","p":[12,10,10]}],
		"engine":{"dt":1,"lj_cutoff":6,"skin":0.5}}`
	code, body := doReq(t, ts.Client(), http.MethodPost, ts.URL+"/v1/sessions", strings.NewReader(model))
	if code != http.StatusCreated {
		t.Fatalf("model create: status %d, body %s", code, body)
	}
	var created createdInfo
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatalf("create response: %v", err)
	}
	if created.Atoms != 2 || created.Workload != "pair" {
		t.Errorf("created = %+v, want 2 atoms named pair", created)
	}
	code, _ = doReq(t, ts.Client(), http.MethodPost, ts.URL+"/v1/sessions/"+created.ID+"/step", nil)
	if code != http.StatusOK {
		t.Errorf("stepping model session: status %d", code)
	}
}

// TestCreateRejectsOversizeAndGarbage covers the untrusted-upload guards.
func TestCreateRejectsOversizeAndGarbage(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxAtoms: 1, MaxBodyBytes: 512})
	cases := []struct {
		name string
		body string
		want int
	}{
		{"not json", "not json at all", http.StatusBadRequest},
		{"unknown field", `{"version":1,"bogus":true}`, http.StatusBadRequest},
		{"too many atoms", `{"version":1,"name":"x","box":{"l":[20,20,20],"periodic":true},
			"atoms":[{"el":"Ar","p":[8,10,10]},{"el":"Ar","p":[12,10,10]}],
			"engine":{"dt":1,"lj_cutoff":6,"skin":0.5}}`, http.StatusRequestEntityTooLarge},
		{"body too large", `{"version":1,"pad":"` + strings.Repeat("x", 600) + `"}`, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := doReq(t, ts.Client(), http.MethodPost, ts.URL+"/v1/sessions", strings.NewReader(tc.body))
			if code != tc.want {
				t.Errorf("status %d (%s), want %d", code, body, tc.want)
			}
		})
	}
}

// TestServerCloseIdempotent double-closes the server and checks requests
// after shutdown fail cleanly rather than hanging or panicking.
func TestServerCloseIdempotent(t *testing.T) {
	s := NewServer(Config{Workers: 1, GCInterval: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.Close()
	s.Close()
	code, _ := doReq(t, ts.Client(), http.MethodPost, ts.URL+"/v1/sessions?workload=lj-gas&n=3", nil)
	if code != http.StatusServiceUnavailable {
		t.Errorf("create after shutdown: status %d, want 503", code)
	}
}
