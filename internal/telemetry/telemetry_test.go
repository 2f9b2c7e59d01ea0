package telemetry

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestPackDecodeRoundTrip(t *testing.T) {
	r := NewRecorder(2, []string{"forces", "integrate"})
	cases := []struct {
		kind  Kind
		phase uint8
		step  int
		us    int64
	}{
		{KindChunk, 1, 0, 0},
		{KindChunk, 0, 12345, 987654321},
		{KindSteal, phaseNone, stepMask, usMask},
		{KindPhaseBegin, 1, 7, 42},
	}
	for _, c := range cases {
		ev := r.decode(0, packEvent(c.kind, c.phase, c.step, c.us))
		if ev.Kind != c.kind.String() {
			t.Errorf("kind: got %q want %q", ev.Kind, c.kind.String())
		}
		if ev.Step != c.step&stepMask {
			t.Errorf("step: got %d want %d", ev.Step, c.step&stepMask)
		}
		if ev.AtUS != c.us&usMask {
			t.Errorf("at_us: got %d want %d", ev.AtUS, c.us&usMask)
		}
		if c.phase != phaseNone {
			want := r.phases[c.phase]
			if ev.Phase != want {
				t.Errorf("phase: got %q want %q", ev.Phase, want)
			}
		} else if ev.Phase != "" {
			t.Errorf("phase: got %q want empty for phaseNone", ev.Phase)
		}
	}
}

func TestRingWrapKeepsMostRecent(t *testing.T) {
	r := newRing(8)
	for i := 1; i <= 20; i++ {
		r.push(uint64(i))
	}
	got := r.snapshot(0)
	if len(got) != 8 {
		t.Fatalf("snapshot length: got %d want 8", len(got))
	}
	for i, ev := range got {
		if want := uint64(13 + i); ev != want {
			t.Errorf("slot %d: got %d want %d (oldest-first window of last 8)", i, ev, want)
		}
	}
	if capped := r.snapshot(3); len(capped) != 3 || capped[2] != 20 {
		t.Errorf("capped snapshot: got %v, want the 3 most recent ending in 20", capped)
	}
}

func TestRingCapacityRoundsToPowerOfTwo(t *testing.T) {
	r := newRing(1000)
	if len(r.slots) != 1024 {
		t.Errorf("capacity: got %d want 1024", len(r.slots))
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 90 fast observations around 1µs, 10 slow around 1ms.
	for i := 0; i < 90; i++ {
		h.Observe(time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(time.Millisecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count: got %d want 100", h.Count())
	}
	p50 := h.Quantile(0.50)
	if p50 < 500*time.Nanosecond || p50 > 2*time.Microsecond {
		t.Errorf("p50 %v not within √2 of 1µs", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 500*time.Microsecond || p99 > 2*time.Millisecond {
		t.Errorf("p99 %v not within √2 of 1ms", p99)
	}
	if mean := h.Mean(); mean < 50*time.Microsecond || mean > 250*time.Microsecond {
		t.Errorf("mean %v implausible for 90×1µs + 10×1ms", mean)
	}
}

func TestHistogramQuantileWithinSqrt2(t *testing.T) {
	var h Histogram
	d := 37 * time.Microsecond
	for i := 0; i < 1000; i++ {
		h.Observe(d)
	}
	got := float64(h.Quantile(0.5))
	ratio := got / float64(d)
	if ratio < 1/math.Sqrt2-1e-9 || ratio > math.Sqrt2+1e-9 {
		t.Errorf("quantile %v off true value %v by ratio %.3f (> √2)", time.Duration(got), d, ratio)
	}
}

func TestRecorderEventFlow(t *testing.T) {
	r := NewRecorder(2, []string{"forces", "integrate"})
	r.PhaseBegin(3, 0)
	for w := 0; w < 2; w++ {
		for i := 0; i < 5; i++ {
			r.Chunk(w, 0)
		}
	}
	r.Steal(1)
	r.Park(0, 2*time.Millisecond)
	r.PhaseEnd(3, 0, 10*time.Millisecond, []time.Duration{4 * time.Millisecond, 6 * time.Millisecond})
	r.StepDone(3)

	snap := r.Snapshot(64)
	if snap.Workers != 2 {
		t.Fatalf("workers: got %d want 2", snap.Workers)
	}
	if snap.Steps != 3 {
		t.Errorf("steps: got %d want 3", snap.Steps)
	}
	if snap.Phases[0].Count != 1 {
		t.Errorf("forces phase count: got %d want 1", snap.Phases[0].Count)
	}
	if got := snap.Phases[0].TotalSeconds; math.Abs(got-0.010) > 1e-9 {
		t.Errorf("forces wall: got %g want 0.010", got)
	}
	if snap.PerWorker[0].Chunks != 5 || snap.PerWorker[1].Chunks != 5 {
		t.Errorf("chunks: got %d/%d want 5/5", snap.PerWorker[0].Chunks, snap.PerWorker[1].Chunks)
	}
	if snap.PerWorker[1].Steals != 1 {
		t.Errorf("steals: got %d want 1", snap.PerWorker[1].Steals)
	}
	if snap.PerWorker[0].Parks != 1 || math.Abs(snap.PerWorker[0].ParkSeconds-0.002) > 1e-9 {
		t.Errorf("parks: got %d/%g want 1/0.002", snap.PerWorker[0].Parks, snap.PerWorker[0].ParkSeconds)
	}
	if math.Abs(snap.PerWorker[1].BusySeconds[0]-0.006) > 1e-9 {
		t.Errorf("worker 1 busy: got %g want 0.006", snap.PerWorker[1].BusySeconds[0])
	}
	var kinds []string
	for _, ev := range snap.Recent {
		kinds = append(kinds, ev.Kind)
	}
	joined := strings.Join(kinds, ",")
	for _, want := range []string{"phase-begin", "chunk", "steal", "park", "phase-end", "step"} {
		if !strings.Contains(joined, want) {
			t.Errorf("recent events %v missing kind %q", kinds, want)
		}
	}
	if snap.Dropped != 0 {
		t.Errorf("dropped: got %d want 0", snap.Dropped)
	}
}

func TestRecorderDropsOutOfRangeWorkers(t *testing.T) {
	r := NewRecorder(2, []string{"forces"})
	r.Chunk(-1, 0)
	r.Chunk(2, 0) // index 2 is the coordinator shard, not a worker
	r.Steal(99)
	r.Park(99, time.Millisecond)
	if got := r.Snapshot(0).Dropped; got != 4 {
		t.Errorf("dropped: got %d want 4", got)
	}
}

func TestRecorderConcurrentRecordAndSnapshot(t *testing.T) {
	// Each worker is the sole producer on its shard while snapshots run
	// concurrently; run under -race to check the lock-free paths.
	r := NewRecorderSize(4, []string{"forces", "integrate"}, 256)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				r.Chunk(w, uint8(i%2))
				if i%100 == 0 {
					r.Steal(w)
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			snap := r.Snapshot(32)
			for _, ev := range snap.Recent {
				if ev.Kind == "none" {
					t.Error("snapshot decoded an empty slot as an event")
				}
			}
		}
	}()
	wg.Wait()
	<-done
	snap := r.Snapshot(0)
	var chunks int64
	for _, wv := range snap.PerWorker {
		chunks += wv.Chunks
	}
	if chunks != 8000 {
		t.Errorf("total chunks: got %d want 8000", chunks)
	}
}

func TestHTTPEndpoints(t *testing.T) {
	r := NewRecorder(2, []string{"forces", "integrate"})
	r.PhaseBegin(1, 0)
	r.Chunk(0, 0)
	r.Chunk(1, 0)
	r.PhaseEnd(1, 0, 5*time.Millisecond, []time.Duration{2 * time.Millisecond, 3 * time.Millisecond})
	r.StepDone(1)

	srv := httptest.NewServer(Handler(r))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/telemetry.json?events=16")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decoding /telemetry.json: %v", err)
	}
	if snap.Workers != 2 || snap.Steps != 1 {
		t.Errorf("snapshot over HTTP: workers=%d steps=%d, want 2/1", snap.Workers, snap.Steps)
	}
	if len(snap.Phases) != 2 || snap.Phases[0].Phase != "forces" {
		t.Errorf("phases over HTTP: %+v", snap.Phases)
	}
	if len(snap.Recent) == 0 {
		t.Error("expected recent events in snapshot")
	}

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	raw, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		"mw_steps_total 1",
		`mw_phase_wall_seconds_total{phase="forces"} 0.005`,
		`mw_phase_count_total{phase="forces"} 1`,
		`mw_worker_chunks_total{worker="0"} 1`,
		"mw_phase_wall_duration_seconds_bucket",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\nbody:\n%s", want, body)
		}
	}

	iresp, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	iresp.Body.Close()
	if iresp.StatusCode != http.StatusOK {
		t.Errorf("index status: %d", iresp.StatusCode)
	}
}

func TestServePicksFreePort(t *testing.T) {
	r := NewRecorder(1, []string{"forces"})
	srv, addr, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + addr + "/telemetry.json")
	if err != nil {
		t.Fatalf("GET on served addr %s: %v", addr, err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status: %d", resp.StatusCode)
	}
}
