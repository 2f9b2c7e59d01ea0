package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptrace"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The served workloads drive a real mwserved child process over HTTP. All
// they know of it is its -addr and -workers flags and the /healthz,
// /v1/sessions, /v1/sessions/{id}/step, /snapshot and /v1/stats routes.

const (
	serveSetups   = 3    // daemon + fleet set-ups per run; setup_s is their median
	fleetTenants  = 64   // resident tenants of either served workload
	baseRate      = 800  // req/s of the open-loop phase the latency metrics come from
	sloLimitMS    = 20.0 // p99 limit a fixed rate must meet
	sloAchieved   = 0.98 // share of the offered rate that must be achieved
	genLateCapUS  = 2000 // generator lateness p99 above which a run is unresolved
	loopSegments  = 16   // closed-loop phases are cut into this many rate segments
	churnStepsPer = 10   // steps per lifecycle's step request

	// servedTail is the percentile op_tail_us reports on the served
	// workloads. One collection cycle of the daemon's heap slows a stretch
	// of requests that is more than 1% of a run, so p99 flips between two
	// values by whether two or three cycles fell into the window; p95 holds.
	servedTail = 95
)

// typicalLatency cuts a phase into loopSegments equal segments by the
// instant each request was due, takes the nearest-rank percentile p of each
// segment's latencies, and returns the median of those: the latency of a
// typical stretch of the phase, as ops_per_s is its typical rate. A burst
// that slows a few segments (a collection cycle in the daemon, a neighbour
// on the host) does not move it; the whole-phase percentiles that do show
// such bursts are among the per-layer metrics.
func typicalLatency(samples []sample, want func(*sample) bool, p float64) float64 {
	var first, last time.Time
	for i := range samples {
		if s := &samples[i]; want(s) {
			if first.IsZero() || s.intended.Before(first) {
				first = s.intended
			}
			if s.intended.After(last) {
				last = s.intended
			}
		}
	}
	segDur := last.Sub(first)/loopSegments + 1
	var bySeg [loopSegments][]float64
	for i := range samples {
		if s := &samples[i]; want(s) {
			seg := int(s.intended.Sub(first) / segDur)
			bySeg[seg] = append(bySeg[seg], s.latencyUS())
		}
	}
	var perSeg []float64
	for _, us := range bySeg {
		if len(us) > 0 {
			perSeg = append(perSeg, percentile(us, p))
		}
	}
	return median(perSeg)
}

func anyStep(s *sample) bool { return s.kind == opStep }

// ladder is the ascending set of fixed rates the traced run offers.
var ladder = []float64{baseRate, 1000, 1200, 1400}

// buildDaemon compiles cmd/mwserved into .bench_build/ of the checkout.
// Its time is part of no metric.
func buildDaemon() (string, error) {
	root, err := repoRoot()
	if err != nil {
		return "", err
	}
	dir := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	bin := filepath.Join(dir, "mwserved")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/mwserved")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building mwserved: %v\n%s", err, out)
	}
	return bin, nil
}

type daemon struct {
	cmd  *exec.Cmd
	base string
}

// startDaemon launches mwserved with one pool worker on a free loopback
// port and returns once /healthz answers.
func startDaemon(bin string) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	cmd := exec.Command(bin, "-addr", addr, "-workers", "1")
	cmd.Stderr = os.Stderr
	dieWithParent(cmd)
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, base: "http://" + addr}
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("mwserved on %s never became healthy: %v", addr, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop ends the daemon and waits until it has exited.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // already gone is fine: Wait below reaps it
	done := make(chan struct{})
	go func() {
		_ = d.cmd.Wait() // exit status of a stopped daemon carries nothing
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
	}
}

func (d *daemon) statusKB(field string) float64 { return procStatusKB(d.cmd.Process.Pid, field) }

// conn is one keep-alive connection: a client whose transport may hold
// exactly one.
type conn struct {
	client *http.Client
	base   string
	buf    bytes.Buffer
}

func newConn(base string) *conn {
	return &conn{base: base, client: &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// marks are the client-side instants of one traced request.
type marks struct{ sent, wrote, firstByte, done time.Time }

// do sends one request and reads the whole reply. The returned body is
// valid until the connection's next request.
func (c *conn) do(method, path string, body []byte, mk *marks) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if mk != nil {
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
			WroteRequest:         func(httptrace.WroteRequestInfo) { mk.wrote = time.Now() },
			GotFirstResponseByte: func() { mk.firstByte = time.Now() },
		}))
		mk.sent = time.Now()
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if mk != nil {
		mk.done = time.Now()
	}
	return resp.StatusCode, c.buf.Bytes(), err
}

// stepReply is what the benchmark reads of a step response.
type stepReply struct {
	Step        int     `json:"step"`
	PE          float64 `json:"pe"`
	WallUS      float64 `json:"wall_us"`
	QueueWaitUS float64 `json:"queue_wait_us"`
	BatchWaitUS float64 `json:"batch_wait_us"`
	ComputeUS   float64 `json:"compute_us"`
}

type opKind uint8

const (
	opStep opKind = iota
	opCreate
	opStepN
	opSnapshot
	opClose
)

// sample is one request as the client saw it. A request that was refused
// (429 included), failed in transport or returned a non-finite energy has
// ok false; its latency counts like any other.
type sample struct {
	kind            opKind
	traced          bool
	ok              bool
	intended, start time.Time // equal in a closed loop
	done            time.Time
	free            time.Time // open loop: when the connection became free
	mk              marks
	reply           stepReply
	bytes           int
	completes       bool // a close that ends a lifecycle in which nothing failed
}

func (s *sample) latencyUS() float64 { return float64(s.done.Sub(s.intended)) / 1e3 }

// step posts one step request and checks the reply.
func (c *conn) step(id string, n int, traced bool) sample {
	s := sample{kind: opStep, traced: traced}
	if n > 1 {
		s.kind = opStepN
	}
	var mk *marks
	if traced {
		mk = &s.mk
	}
	s.start = time.Now()
	s.intended = s.start
	status, body, err := c.do(http.MethodPost, fmt.Sprintf("/v1/sessions/%s/step?n=%d", id, n), nil, mk)
	s.done = time.Now()
	s.bytes = len(body)
	// A NaN or Inf energy cannot be encoded as JSON, so it shows as a
	// non-200 or a reply that does not decode; the explicit test is for a
	// server that one day writes them some other way.
	s.ok = err == nil && status == http.StatusOK &&
		json.Unmarshal(body, &s.reply) == nil && !math.IsNaN(s.reply.PE) && !math.IsInf(s.reply.PE, 0)
	return s
}

// fleet is the set of resident tenants of one daemon.
type fleet struct {
	ids    []string
	doc0   []byte         // the document tenant 0 was created from
	steps  []atomic.Int64 // steps the client has seen applied, per tenant
	cursor atomic.Int64   // round-robin position
}

// stepNext steps the next tenant in round-robin order once.
func (f *fleet) stepNext(c *conn, traced bool) sample {
	t := int(f.cursor.Add(1)-1) % len(f.ids)
	s := c.step(f.ids[t], 1, traced)
	if s.ok {
		f.steps[t].Add(1)
	}
	return s
}

// createFleet uploads n Al-1000 models (seed+i each) and pre-steps tenant i
// by 1+(7i mod 29) steps. The stagger is what keeps identical tenants,
// stepped round-robin, from rebuilding their lists in lock-step and forming
// an n × 2 ms convoy.
func createFleet(conns []*conn, n int, seed int64) (*fleet, error) {
	f := &fleet{ids: make([]string, n), steps: make([]atomic.Int64, n)}
	errs := make([]error, len(conns))
	var wg sync.WaitGroup
	for ci, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := ci; i < n; i += len(conns) {
				sys, cfg := generate("al1000", seed+int64(i))
				doc := modelDocument(fmt.Sprintf("al1000-%d", i), sys, cfg)
				if i == 0 {
					f.doc0 = doc
				}
				id, err := c.create(doc)
				if err != nil {
					errs[ci] = fmt.Errorf("creating tenant %d: %w", i, err)
					return
				}
				f.ids[i] = id
				pre := 1 + (7*i)%29
				if s := c.step(id, pre, false); !s.ok {
					errs[ci] = fmt.Errorf("pre-stepping tenant %d failed", i)
					return
				}
				f.steps[i].Store(int64(pre))
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return f, nil
}

func (c *conn) create(doc []byte) (string, error) {
	status, body, err := c.do(http.MethodPost, "/v1/sessions", doc, nil)
	if err != nil {
		return "", err
	}
	var created struct {
		ID string `json:"id"`
	}
	if status != http.StatusCreated || json.Unmarshal(body, &created) != nil || created.ID == "" {
		return "", fmt.Errorf("status %d: %.200s", status, body)
	}
	return created.ID, nil
}

// served is a running daemon with its fleet, and what setting it up cost.
type served struct {
	d            *daemon
	conns        []*conn
	fleet        *fleet
	rssPerTenant float64 // kB
	setupS       float64
	statsAtStart serverStats
}

type serverStats struct {
	Shed429   int64   `json:"shed_429_total"`
	MeanBatch float64 `json:"mean_batch_size"`
	Batches   int64   `json:"batches_total"`
	Batched   int64   `json:"batched_requests_total"`
}

func (sv *served) stats() serverStats {
	var st serverStats
	_, body, err := sv.conns[0].do(http.MethodGet, "/v1/stats", nil, nil)
	if err == nil {
		_ = json.Unmarshal(body, &st) // a reply that does not decode reads as zeros
	}
	return st
}

func (sv *served) close() {
	for _, c := range sv.conns {
		c.close()
	}
	sv.d.stop()
}

// setUpServed starts a daemon and its fleet, timing the whole of it.
func setUpServed(bin string, tenants int, seed int64) (*served, error) {
	t0 := time.Now()
	d, err := startDaemon(bin)
	if err != nil {
		return nil, err
	}
	sv := &served{d: d}
	for i := 0; i < loadConns(); i++ {
		sv.conns = append(sv.conns, newConn(d.base))
	}
	rss0 := d.statusKB("VmRSS")
	if sv.fleet, err = createFleet(sv.conns, tenants, seed); err != nil {
		sv.close()
		return nil, err
	}
	sv.rssPerTenant = (d.statusKB("VmRSS") - rss0) / float64(tenants)
	sv.setupS = time.Since(t0).Seconds()
	sv.statsAtStart = sv.stats()
	return sv, nil
}

// setUpRepeatedly sets the daemon up serveSetups times and keeps the last;
// setup_s is the median.
func setUpRepeatedly(o options, tenants int, m *metrics, out *outcome) (*served, error) {
	bin, err := buildDaemon()
	if err != nil {
		return nil, err
	}
	setups := serveSetups
	if o.smoke {
		setups = 1
	}
	var sv *served
	var setupS []float64
	for r := 0; r < setups; r++ {
		if sv != nil {
			sv.close()
		}
		if sv, err = setUpServed(bin, tenants, o.seed); err != nil {
			return nil, err
		}
		setupS = append(setupS, sv.setupS)
	}
	m.set("setup_s", median(setupS))
	m.set("serve.rss_per_session_kb", sv.rssPerTenant)
	out.samples["setup_s"] = len(setupS)
	return sv, nil
}

// closedLoop runs body on every connection, back to back, for dur. body is
// told the connection's index and whether the current segment is a traced
// one; it appends the samples it makes to the slice it is given.
func closedLoop(conns []*conn, dur time.Duration, traced func(seg int) bool, body func(ci int, c *conn, traced bool, into *[]sample)) (start time.Time, perConn [][]sample) {
	perConn = make([][]sample, len(conns))
	start = time.Now()
	segDur := dur / loopSegments
	var wg sync.WaitGroup
	for ci, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				seg := int(time.Since(start) / segDur)
				if seg >= loopSegments {
					return
				}
				body(ci, c, traced(seg), &perConn[ci])
			}
		}()
	}
	wg.Wait()
	return start, perConn
}

// segmentRates returns, per segment of a closed-loop phase, the rate at
// which samples that want accepts completed. A segment's rate is measured
// between the last completion before it and the last completion in it, so
// it is not quantised to whole operations per segment.
func segmentRates(start time.Time, dur time.Duration, samples []sample, want func(*sample) bool) []float64 {
	var done []time.Duration
	for i := range samples {
		if s := &samples[i]; want(s) {
			done = append(done, s.done.Sub(start))
		}
	}
	sort.Slice(done, func(a, b int) bool { return done[a] < done[b] })
	segDur := dur / loopSegments
	var rates []float64
	from, fromAt := 0, time.Duration(0)
	for seg := 0; seg < loopSegments; seg++ {
		to := sort.Search(len(done), func(i int) bool { return done[i] > time.Duration(seg+1)*segDur })
		rate := 0.0
		if to > from {
			rate = float64(to-from) / (done[to-1] - fromAt).Seconds()
			fromAt = done[to-1]
		}
		from = to
		rates = append(rates, rate)
	}
	return rates
}

// openLoop offers n operations at a fixed rate from a fixed schedule:
// operation k is due at t0 + k/rate whatever happened to the ones before
// it, and its latency is counted from that instant, so the wait a stall
// imposes on the operations queued behind it is charged to them. At most
// `workers` operations are in flight. send performs operation k and
// reports whether it succeeded.
func openLoop(rate float64, n, workers int, send func(worker, k int) bool) []sample {
	interval := time.Duration(float64(time.Second) / rate)
	t0 := time.Now().Add(5 * time.Millisecond)
	samples := make([]sample, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			free := t0
			for {
				k := int(next.Add(1) - 1)
				if k >= n {
					return
				}
				s := &samples[k]
				s.intended = t0.Add(time.Duration(k) * interval)
				s.free = free
				sleepUntil(s.intended)
				s.start = time.Now()
				s.ok = send(w, k)
				s.done = time.Now()
				free = s.done
			}
		}()
	}
	wg.Wait()
	return samples
}

// rateReport summarises one open-loop phase.
type rateReport struct {
	rate, achieved      float64
	p50US, p95US, p99US float64
	genLateP99          float64
	failed              int64
	n                   int
}

func summariseRate(rate float64, samples []sample) rateReport {
	r := rateReport{rate: rate, n: len(samples)}
	lat := make([]float64, 0, len(samples))
	late := make([]float64, 0, len(samples))
	first, last := samples[0].intended, samples[0].done
	for i := range samples {
		s := &samples[i]
		if !s.ok {
			r.failed++
		}
		lat = append(lat, s.latencyUS())
		due := s.intended
		if s.free.After(due) {
			due = s.free
		}
		late = append(late, float64(s.start.Sub(due))/1e3)
		if s.done.After(last) {
			last = s.done
		}
	}
	sort.Float64s(lat)
	r.p50US, r.p95US, r.p99US = sortedPercentile(lat, 50), sortedPercentile(lat, servedTail), sortedPercentile(lat, 99)
	r.genLateP99 = percentile(late, 99)
	r.achieved = float64(len(samples)) / last.Sub(first).Seconds()
	return r
}

func (r rateReport) meetsSLO() bool {
	return r.failed == 0 && r.p99US <= sloLimitMS*1e3 && r.achieved >= sloAchieved*r.rate
}

// offer runs one open-loop phase against the fleet.
func (sv *served) offer(rate float64, dur time.Duration, traced bool) []sample {
	n := max(int(rate*dur.Seconds()), 20)
	replies := make([]sample, n)
	samples := openLoop(rate, n, len(sv.conns), func(w, k int) bool {
		replies[k] = sv.fleet.stepNext(sv.conns[w], traced)
		return replies[k].ok
	})
	for k := range samples {
		samples[k].kind, samples[k].traced = opStep, traced
		samples[k].mk, samples[k].reply, samples[k].bytes = replies[k].mk, replies[k].reply, replies[k].bytes
	}
	return samples
}

// tally adds samples to the attempted/failed counts.
func tally(out *outcome, samples []sample) {
	for i := range samples {
		out.attempted++
		if !samples[i].ok {
			out.failed++
		}
	}
}

// recordSpans writes the request spans of the traced samples: the request
// from the instant it was due to the last byte read, the client's own parts
// under it, and under the server's part what the reply said of itself.
func recordSpans(tr *tracer, samples []sample, firstReq int64) {
	names := [...]string{"request.step", "request.create", "request.step10", "request.snapshot", "request.close"}
	for i := range samples {
		s := &samples[i]
		if !s.traced || s.mk.wrote.IsZero() || s.mk.firstByte.IsZero() {
			continue
		}
		req := firstReq + int64(i)
		root := tr.add(0, names[s.kind], tr.since(s.intended), tr.since(s.done), req, "")
		if s.mk.sent.After(s.intended) {
			tr.add(root, "client.wait", tr.since(s.intended), tr.since(s.mk.sent), req, "")
		}
		tr.add(root, "client.write", tr.since(s.mk.sent), tr.since(s.mk.wrote), req, "")
		srv := tr.add(root, "server", tr.since(s.mk.wrote), tr.since(s.mk.firstByte), req, "")
		tr.add(root, "client.read", tr.since(s.mk.firstByte), tr.since(s.mk.done), req, "")
		if s.kind == opStep || s.kind == opStepN {
			at := tr.since(s.mk.wrote)
			for _, part := range [...]struct {
				name string
				us   float64
			}{{"serve.queue_wait", s.reply.QueueWaitUS}, {"serve.batch_wait", s.reply.BatchWaitUS}, {"serve.compute", s.reply.ComputeUS}} {
				d := int64(part.us * 1e3)
				tr.add(srv, part.name, at, at+d, req, "reported")
				at += d
			}
		}
	}
}

// reportRequestLayers derives the serve.* metrics that describe where a
// step request's time went, from the traced samples of one population.
func reportRequestLayers(samples []sample, m *metrics) {
	var compute, queue, batch, overhead, write, read []float64
	for i := range samples {
		s := &samples[i]
		if !s.ok || !s.traced || s.mk.firstByte.IsZero() {
			continue
		}
		compute = append(compute, s.reply.ComputeUS)
		queue = append(queue, s.reply.QueueWaitUS)
		batch = append(batch, s.reply.BatchWaitUS)
		overhead = append(overhead, float64(s.mk.firstByte.Sub(s.mk.sent))/1e3-s.reply.WallUS)
		write = append(write, float64(s.mk.wrote.Sub(s.mk.sent))/1e3)
		read = append(read, float64(s.mk.done.Sub(s.mk.firstByte))/1e3)
	}
	for _, part := range [...]struct {
		name string
		us   []float64
	}{{"compute", compute}, {"queue_wait", queue}, {"batch_wait", batch}} {
		sort.Float64s(part.us)
		if len(part.us) > 0 {
			m.set("serve."+part.name+"_p50_us", sortedPercentile(part.us, 50))
			m.set("serve."+part.name+"_p99_us", sortedPercentile(part.us, 99))
		}
	}
	m.set("serve.overhead_p50_us", median(overhead))
	m.set("serve.client_write_us", median(write))
	m.set("serve.client_read_us", median(read))
}

func okStep(s *sample) bool { return s.ok && s.kind == opStep }

func runServeStep(o options, m *metrics, tr *tracer) (*outcome, error) {
	out := &outcome{samples: map[string]int{}}
	tenants := fleetTenants
	if o.smoke {
		tenants = 8
	}
	sv, err := setUpRepeatedly(o, tenants, m, out)
	if err != nil {
		return nil, err
	}
	defer sv.close()
	fmt.Fprintf(o.log, "# serve-step: %d tenants, %d connections, %s\n", tenants, len(sv.conns), sv.d.base)
	seconds := time.Duration(o.seconds * float64(time.Second))

	// Closed loop: capacity.
	closedDur := seconds * 35 / 100
	if o.trace {
		closedDur = seconds / 5
	}
	traced := alternate(o.trace)
	start, perConn := closedLoop(sv.conns, closedDur, traced, func(_ int, c *conn, traced bool, into *[]sample) {
		*into = append(*into, sv.fleet.stepNext(c, traced))
	})
	var closed []sample
	for _, ss := range perConn {
		closed = append(closed, ss...)
	}
	tally(out, closed)
	all := segmentRates(start, closedDur, closed, okStep)
	m.set("ops_per_s", median(all))
	out.samples["ops_per_s"] = len(all)
	fmt.Fprintf(o.log, "# closed loop, %d segments of %v, req/s: %.0f\n", len(all), closedDur/loopSegments, all)

	// Open loop at the base rate: latency, from the intended send instant.
	openDur := seconds - closedDur
	if o.trace {
		openDur = seconds / 5
	}
	time.Sleep(100 * time.Millisecond)
	base := sv.offer(baseRate, openDur, o.trace)
	tally(out, base)
	rep := summariseRate(baseRate, base)
	m.set("op_p50_us", typicalLatency(base, anyStep, 50))
	m.set("op_tail_us", typicalLatency(base, anyStep, servedTail))
	out.samples["op_p50_us"], out.samples["op_tail_us"] = rep.n, rep.n
	reports := []rateReport{rep}

	if o.trace {
		recordSpans(tr, closed, 0)
		recordSpans(tr, base, int64(len(closed)))
		reportRequestLayers(base, m)
		m.set("bench.trace_overhead_pct", tracingCostPct(all, traced))
		for _, rate := range ladder[1:] {
			time.Sleep(200 * time.Millisecond) // drain
			ss := sv.offer(rate, openDur, true)
			tally(out, ss)
			reports = append(reports, summariseRate(rate, ss))
		}
		slo, met := 0.0, true
		for _, r := range reports {
			m.set(fmt.Sprintf("serve.lat_p99_ms_r%.0f", r.rate), r.p99US/1e3)
			if met = met && r.meetsSLO(); met {
				slo = r.rate
			}
		}
		m.set("serve.slo_rate_rps", slo)
	}
	worstLate := 0.0
	for _, r := range reports {
		fmt.Fprintf(o.log, "# offered %.0f req/s: achieved %.1f, p50 %.0f p95 %.0f p99 %.0f us, generator late p99 %.0f us, %d of %d failed\n",
			r.rate, r.achieved, r.p50US, r.p95US, r.p99US, r.genLateP99, r.failed, r.n)
		if r.rate < ladder[len(ladder)-1] {
			worstLate = max(worstLate, r.genLateP99)
		}
	}
	m.set("serve.gen_late_p99_us", worstLate)
	if worstLate > genLateCapUS {
		out.unresolved = append(out.unresolved, fmt.Sprintf("load generator ran %.0f us late at p99 (cap %d)", worstLate, genLateCapUS))
	}
	if c := cv(all); c > segmentCVCap {
		out.unresolved = append(out.unresolved, fmt.Sprintf("closed-loop segment rate CV %.2f above %.2f", c, segmentCVCap))
	}
	return out, finishServed(sv, o, m, out, tr, "al1000")
}

// finishServed makes the checks and reads the counters every served
// workload ends with: peak RSS and shedding from the daemon, and one
// tenant's state against an in-process replay of the model it uploaded.
func finishServed(sv *served, o options, m *metrics, out *outcome, tr *tracer, name string) error {
	st := sv.stats()
	m.set("serve.shed_429", float64(st.Shed429-sv.statsAtStart.Shed429))
	if b := st.Batches - sv.statsAtStart.Batches; b > 0 {
		m.set("serve.mean_batch_size", float64(st.Batched-sv.statsAtStart.Batched)/float64(b))
	}
	m.set("peak_rss_mb", sv.d.statusKB("VmHWM")/1024)

	status, body, err := sv.conns[0].do(http.MethodGet, "/v1/sessions/"+sv.fleet.ids[0]+"/snapshot", nil, nil)
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("snapshot of tenant 0: status %d: %v", status, err)
	}
	var snap struct {
		Step int          `json:"step"`
		Pos  [][3]float64 `json:"pos"`
		Vel  [][3]float64 `json:"vel"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		return fmt.Errorf("snapshot of tenant 0: %w", err)
	}
	seen := int(sv.fleet.steps[0].Load())
	if out.failed == 0 {
		// With no failed request, the daemon must have applied exactly the
		// steps the client saw answered.
		out.check("tenant 0 applied every answered step once", snap.Step == seen, "snapshot at step %d, client saw %d", snap.Step, seen)
	}
	sys, cfg, err := loadDocument(bytes.NewReader(sv.fleet.doc0))
	if err != nil {
		return err
	}
	sim, err := newSimulation(sys, defaultConfig(cfg))
	if err != nil {
		return err
	}
	defer sim.Close()
	for i := 0; i < snap.Step; i++ {
		sim.Step()
	}
	same := len(snap.Pos) == sim.Sys.N() && len(snap.Vel) == sim.Sys.N()
	for i := 0; same && i < sim.Sys.N(); i++ {
		p, v := sim.Sys.Pos[i], sim.Sys.Vel[i]
		same = [3]float64{p.X, p.Y, p.Z} == snap.Pos[i] && [3]float64{v.X, v.Y, v.Z} == snap.Vel[i]
	}
	out.check("tenant 0 is bit-identical to an in-process replay", same, "%d atoms after %d steps", sim.Sys.N(), snap.Step)

	if !o.trace {
		return nil
	}
	// The tenant's own path, in process: what a request's compute is made of.
	steps, reps := passSteps(1000), replayReps
	if o.smoke {
		steps, reps = passSteps(40), 5
	}
	tr.reserve(steps * (len(enginePhases) + 1))
	p := runPass(sim, 0, steps, tr)
	reportStepSpans(tr, p, m)
	m.set("core.steps_per_s_t1", median(untracedOnly(p.segRates, p.traced)))
	tNew := time.Now()
	again, err := newSimulation(sim.Sys.Clone(), defaultConfig(cfg))
	if err != nil {
		return err
	}
	again.Close()
	m.set("core.new_ms", time.Since(tNew).Seconds()*1e3)
	replayLayers(sim.Sys.Clone(), cfg, false, name, reps, m, tr)
	return nil
}

func runServeChurn(o options, m *metrics, tr *tracer) (*outcome, error) {
	out := &outcome{samples: map[string]int{}}
	tenants := fleetTenants
	if o.smoke {
		tenants = 4
	}
	sv, err := setUpRepeatedly(o, tenants, m, out)
	if err != nil {
		return nil, err
	}
	defer sv.close()
	carSys, carCfg := generate("nanocar", o.seed)
	car := modelDocument("nanocar", carSys, carCfg)
	fmt.Fprintf(o.log, "# serve-churn: %d residents, %d connections, %d kB nanocar model\n", tenants, len(sv.conns), len(car)/1024)

	dur := time.Duration(o.seconds * float64(time.Second))
	traced := alternate(o.trace)
	// Connection 0 churns, the last connection steps the residents; with a
	// single connection the two alternate on it.
	start, perConn := closedLoop(sv.conns, dur, traced, func(ci int, c *conn, traced bool, into *[]sample) {
		if ci == 0 {
			*into = append(*into, lifecycle(c, car, traced)...)
		}
		if ci == len(sv.conns)-1 {
			*into = append(*into, sv.fleet.stepNext(c, traced))
		}
	})
	var all []sample
	for _, ss := range perConn {
		all = append(all, ss...)
	}
	tally(out, all)

	cycles := segmentRates(start, dur, all, func(s *sample) bool { return s.completes })
	m.set("ops_per_s", median(cycles))
	out.samples["ops_per_s"] = len(cycles)
	m.set("op_p50_us", typicalLatency(all, anyStep, 50))
	m.set("op_tail_us", typicalLatency(all, anyStep, servedTail))
	steps := 0
	for i := range all {
		if all[i].kind == opStep {
			steps++
		}
	}
	out.samples["op_p50_us"], out.samples["op_tail_us"] = steps, steps
	m.set("serve.stepper_req_per_s", median(segmentRates(start, dur, all, okStep)))
	if c := cv(cycles); c > segmentCVCap {
		out.unresolved = append(out.unresolved, fmt.Sprintf("lifecycle segment rate CV %.2f above %.2f", c, segmentCVCap))
	}

	if o.trace {
		recordSpans(tr, all, 0)
		var steppers []sample
		byKind := map[opKind][]float64{}
		snapshotBytes := 0
		for i := range all {
			s := &all[i]
			if s.kind == opStep {
				steppers = append(steppers, *s)
			} else if s.ok {
				byKind[s.kind] = append(byKind[s.kind], s.latencyUS()/1e3)
				if s.kind == opSnapshot {
					snapshotBytes = s.bytes
				}
			}
		}
		reportRequestLayers(steppers, m)
		m.set("serve.create_p50_ms", median(byKind[opCreate]))
		m.set("serve.step10_p50_ms", median(byKind[opStepN]))
		m.set("serve.snapshot_p50_ms", median(byKind[opSnapshot]))
		m.set("serve.close_p50_ms", median(byKind[opClose]))
		m.set("serve.snapshot_kb", float64(snapshotBytes)/1024)
		m.set("bench.trace_overhead_pct", tracingCostPct(cycles, traced))
	}
	return out, finishServed(sv, o, m, out, tr, "nanocar-and-al1000")
}

// lifecycle opens a model, steps it, reads it back and closes it. It stops
// at the first request that fails; a model that was opened is always
// closed.
func lifecycle(c *conn, doc []byte, traced bool) []sample {
	timed := func(kind opKind, method, path string, body []byte, want int) (sample, []byte) {
		s := sample{kind: kind, traced: traced}
		var mk *marks
		if traced {
			mk = &s.mk
		}
		s.start = time.Now()
		s.intended = s.start
		status, reply, err := c.do(method, path, body, mk)
		s.done = time.Now()
		s.bytes = len(reply)
		s.ok = err == nil && status == want
		return s, reply
	}
	create, reply := timed(opCreate, http.MethodPost, "/v1/sessions", doc, http.StatusCreated)
	var created struct {
		ID string `json:"id"`
	}
	if create.ok = create.ok && json.Unmarshal(reply, &created) == nil && created.ID != ""; !create.ok {
		return []sample{create}
	}
	out := []sample{create}
	step := c.step(created.ID, churnStepsPer, traced)
	out = append(out, step)
	if step.ok {
		snap, body := timed(opSnapshot, http.MethodGet, "/v1/sessions/"+created.ID+"/snapshot", nil, http.StatusOK)
		snap.ok = snap.ok && len(body) > 0
		out = append(out, snap)
	}
	closed, _ := timed(opClose, http.MethodDelete, "/v1/sessions/"+created.ID, nil, http.StatusNoContent)
	closed.completes = closed.ok && len(out) == 3 && out[2].ok
	return append(out, closed)
}
