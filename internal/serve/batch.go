package serve

import (
	"net/http"
	"time"

	"mw/internal/pool"
)

// stepReq is one tenant's request to advance its simulation n steps. done
// is buffered so the batch can complete a request whose client has already
// disconnected without blocking a pool worker.
//
// The *US stamps (service-recorder µs) are the attribution trail every
// request leaves, traced or not: enqueue is written by the handler,
// dequeue by the batcher, execBegin/execEnd by the pool worker. Each stamp
// is read only on the far side of a synchronizing handoff (queue send,
// done send, latch await), so none of them need atomics.
type stepReq struct {
	sess *Session
	n    int
	t0   time.Time
	done chan stepResult

	enqueueUS   int64
	dequeueUS   int64
	execBeginUS int64
	execEndUS   int64

	// rt is non-nil for sampled requests: the trace record both sides of
	// the request fill in and then publish (see RequestTrace.finishWriter).
	rt *RequestTrace
}

// stepResult is what a completed (or failed) step request reports back.
// The attribution fields decompose WallMicros: wall ≈ queue_wait +
// batch_wait + compute plus the serialize/network time the client alone
// can see — which is how the benchmark's serve workloads (serve.queue_wait,
// serve.batch_wait, serve.compute) split a request against their own
// end-to-end measurement.
type stepResult struct {
	Step        int     `json:"step"`
	PE          float64 `json:"pe"`
	WallMicros  float64 `json:"wall_us"`
	Batch       int     `json:"batch"`
	BatchSize   int     `json:"batch_size"`
	QueueWaitUS float64 `json:"queue_wait_us"`
	BatchWaitUS float64 `json:"batch_wait_us"`
	ComputeUS   float64 `json:"compute_us"`
	TraceID     string  `json:"trace_id,omitempty"`
	err         *httpError
}

// retryAfter is the Retry-After hint on shed requests: roughly one batch's
// worth of queue drain, deliberately coarse (the header has 1 s resolution).
const retryAfter = "1"

// enqueue admits a step request to the bounded queue. In non-blocking mode
// a full queue sheds the request with 429 + Retry-After — the admission
// control that keeps an oversubscribed server answering instead of
// accumulating unbounded latency. Blocking mode is for streams, which are
// long-lived and prefer waiting for a slot over mid-stream errors; the
// bounded queue still applies backpressure through them.
func (s *Server) enqueue(rq *stepReq, block bool) *httpError {
	if s.closed.Load() {
		return &httpError{http.StatusServiceUnavailable, "server shutting down"}
	}
	s.stepReqs.Add(1)
	if block {
		select {
		case s.stepQ <- rq:
			return nil
		case <-s.quit:
			return &httpError{http.StatusServiceUnavailable, "server shutting down"}
		}
	}
	select {
	case s.stepQ <- rq:
		return nil
	default:
		s.shed.Add(1)
		return &httpError{http.StatusTooManyRequests, "step queue full"}
	}
}

// batcher is the single consumer of the step queue: it coalesces pending
// requests from many tenants into one batch and fans the batch out over the
// shared pool behind a latch barrier — pool.RunPhase's fan-out/latch/await
// shape with sessions as the work chunks. While a batch executes, new
// requests pile up in the queue, so batches grow with load and shrink when
// load drops; BatchWindow adds an explicit coalescing wait for workloads
// that prefer throughput over first-request latency.
func (s *Server) batcher() {
	defer s.wg.Done()
	for {
		select {
		case rq := <-s.stepQ:
			s.runBatch(s.collect(rq))
		case <-s.quit:
			// Fail whatever is still queued so no handler waits forever.
			for {
				select {
				case rq := <-s.stepQ:
					if rq.rt != nil {
						rq.rt.finishWriter() // the batch side will never run
					}
					rq.done <- stepResult{err: &httpError{
						http.StatusServiceUnavailable, "server shutting down"}}
				default:
					return
				}
			}
		}
	}
}

// collect assembles a batch: the triggering request, whatever else is
// already queued, and — when a batch window is configured — whatever more
// arrives within it.
func (s *Server) collect(first *stepReq) []*stepReq {
	batch := make([]*stepReq, 1, 16)
	batch[0] = first
drain:
	for len(batch) < s.cfg.MaxBatch {
		select {
		case rq := <-s.stepQ:
			batch = append(batch, rq)
		default:
			break drain
		}
	}
	if s.cfg.BatchWindow > 0 && len(batch) < s.cfg.MaxBatch {
		timer := time.NewTimer(s.cfg.BatchWindow)
		defer timer.Stop()
	window:
		for len(batch) < s.cfg.MaxBatch {
			select {
			case rq := <-s.stepQ:
				batch = append(batch, rq)
			case <-timer.C:
				break window
			case <-s.quit:
				break window
			}
		}
	}
	return batch
}

// runBatch fans the batch out over the pool and blocks until the latch
// barrier trips. Each task is one tenant's whole serial step run, so the
// pool's queue topology is exercised exactly as in the paper's §II-B — just
// with sessions instead of atom chunks.
func (s *Server) runBatch(batch []*stepReq) {
	seq := int(s.batchSeq.Add(1))
	size := len(batch)
	t0 := time.Now()
	dequeueUS := s.rec.NowMicros()
	for _, rq := range batch {
		rq.dequeueUS = dequeueUS
	}
	s.rec.PhaseBegin(seq, svcStep)
	latch := pool.NewLatch(size)
	for i, rq := range batch {
		rq := rq
		task := func() {
			res := s.execStep(rq)
			res.Batch = seq
			res.BatchSize = size
			rq.done <- res
			latch.CountDown()
		}
		switch {
		case s.fixed != nil:
			s.fixed.Execute(task)
		case s.pinned != nil:
			s.pinned.Execute(task)
		case s.stealing != nil:
			s.stealing.SubmitFor(i%s.cfg.Workers, func(worker int) { task() })
		}
	}
	latch.Await()
	s.rec.PhaseEnd(seq, svcStep, time.Since(t0), nil)
	s.batches.Add(1)
	s.batchedReqs.Add(int64(size))

	// Barrier accounting, after the latch: how long each request's tenant
	// kept the batch closed past its own compute (the straggler share),
	// plus the batch span for /v1/trace's tid-0 track. The worker-side
	// stamps are safely visible here — they happen-before CountDown, which
	// happens-before Await returning.
	barrierUS := s.rec.NowMicros()
	for _, rq := range batch {
		if rq.execEndUS > 0 {
			straggler := time.Duration(barrierUS-rq.execEndUS) * time.Microsecond
			traceID := ""
			if rq.rt != nil {
				traceID = rq.rt.TraceID
			}
			s.svcAttr.observe(attrStraggler, straggler, traceID, barrierUS)
			rq.sess.attr.observe(attrStraggler, straggler, traceID, barrierUS)
		}
		if rt := rq.rt; rt != nil {
			rt.Batch = seq
			rt.BatchSize = size
			rt.DequeueUS = rq.dequeueUS
			rt.ExecBeginUS = rq.execBeginUS
			rt.ExecEndUS = rq.execEndUS
			rt.BarrierUS = barrierUS
			rt.QueueWaitUS = clampUS(rq.dequeueUS - rq.enqueueUS)
			rt.BatchWaitUS = clampUS(rq.execBeginUS - rq.dequeueUS)
			rt.ComputeUS = clampUS(rq.execEndUS - rq.execBeginUS)
			if rq.execEndUS > 0 {
				rt.StragglerUS = clampUS(barrierUS - rq.execEndUS)
			}
			rt.finishWriter()
		}
	}
	s.batchSpans.add(batchSpan{Seq: seq, Size: size, BeginUS: dequeueUS, EndUS: barrierUS})
}

// clampUS floors a µs difference at zero — stamps a truncated error path
// never wrote must not turn into negative components.
func clampUS(us int64) int64 {
	if us < 0 {
		return 0
	}
	return us
}

// execStep advances one session under its lock. A session evicted or closed
// between enqueue and execution reports 409 — the request was admitted, the
// tenant vanished.
func (s *Server) execStep(rq *stepReq) stepResult {
	sess := rq.sess
	sess.mu.Lock()
	defer sess.mu.Unlock()
	rq.execBeginUS = s.rec.NowMicros()
	if sess.closed {
		rq.execEndUS = rq.execBeginUS
		return stepResult{err: &httpError{http.StatusConflict, "session closed"}}
	}
	traced := rq.rt != nil
	var tenantBeginUS int64
	if traced {
		// Open the drain window: seek the cursor past the backlog earlier
		// untraced requests left in the ring (O(shards), not O(backlog) —
		// at TraceSample=64 the backlog is ~64 requests of events and this
		// runs on the traced hot path, which the observer-overhead gate
		// watches), and stamp the tenant-clock compute start so the post-run
		// drain can fence off any event that still predates this window.
		sess.rec.Seek(&sess.cursor)
		tenantBeginUS = sess.rec.NowMicros()
	}
	sess.sim.Run(rq.n)
	rq.execEndUS = s.rec.NowMicros()
	traceID := ""
	if traced {
		traceID = rq.rt.TraceID
		// Re-base the tenant recorder's timebase onto the service clock and
		// collect the engine-phase spans that ran inside this compute window.
		offset := rq.execEndUS - sess.rec.NowMicros()
		rq.rt.Phases = drainRequestPhases(sess, tenantBeginUS, offset, rq.execBeginUS, rq.execEndUS)
	}
	sess.steps.Add(int64(rq.n))
	s.stepsTotal.Add(int64(rq.n))
	sess.touch()
	lat := time.Since(rq.t0)
	sess.stepHist.Observe(lat)
	s.stepLat.Observe(lat)
	sess.slo.record(lat, false)
	s.slo.record(lat, false)

	// Attribution: every request (traced or not) feeds the decomposed
	// histograms; traced ones pin bucket exemplars to their trace id.
	queueWait := time.Duration(clampUS(rq.dequeueUS-rq.enqueueUS)) * time.Microsecond
	batchWait := time.Duration(clampUS(rq.execBeginUS-rq.dequeueUS)) * time.Microsecond
	compute := time.Duration(clampUS(rq.execEndUS-rq.execBeginUS)) * time.Microsecond
	at := rq.execEndUS
	s.svcAttr.observe(attrQueueWait, queueWait, traceID, at)
	s.svcAttr.observe(attrBatchWait, batchWait, traceID, at)
	s.svcAttr.observe(attrCompute, compute, traceID, at)
	sess.attr.observe(attrQueueWait, queueWait, traceID, at)
	sess.attr.observe(attrBatchWait, batchWait, traceID, at)
	sess.attr.observe(attrCompute, compute, traceID, at)

	return stepResult{
		Step:        sess.sim.StepCount(),
		PE:          sess.sim.PE(),
		WallMicros:  float64(lat) / float64(time.Microsecond),
		QueueWaitUS: float64(queueWait) / float64(time.Microsecond),
		BatchWaitUS: float64(batchWait) / float64(time.Microsecond),
		ComputeUS:   float64(compute) / float64(time.Microsecond),
		TraceID:     traceID,
	}
}
