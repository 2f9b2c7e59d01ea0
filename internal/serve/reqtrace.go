package serve

import (
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"mw/internal/telemetry"
	"mw/internal/tracing"
)

// This file is the request-scoped half of the service's observability: a
// bounded ring of completed RequestTraces (one per sampled request),
// assembled from stamps taken at every hop of a step request's life —
// handler admission, batch queue, batcher dequeue, pool execution, latch
// barrier, response serialization — plus the tenant engine's own phase
// events drained from its ring recorder. /v1/trace exports the ring as a
// Chrome/Perfetto trace of per-request span trees laid out next to the
// batcher track, so "where did this tenant's p99 go" is one click, not a
// log-grep. All timestamps are µs in the *service* recorder's timebase;
// nothing here ever touches the FP state, so determinism is untouched.

// ReqPhaseSpan is one engine-phase instance that ran inside a traced
// request's compute window, re-based onto the service clock.
type ReqPhaseSpan struct {
	Phase   string `json:"phase"`
	BeginUS int64  `json:"begin_us"`
	EndUS   int64  `json:"end_us"`
}

// RequestTrace is the record of one sampled step request. The stamp fields
// are a monotone sequence on the service clock; the derived *US component
// fields are what the attribution histograms observe. A trace is published
// to the ring only after both of its writers (the HTTP handler goroutine
// and the batch/pool side) are done with it, so readers never see a
// half-filled record.
type RequestTrace struct {
	TraceID   string `json:"trace_id"`
	SpanID    string `json:"span_id"`
	Session   string `json:"session"`
	Workload  string `json:"workload"`
	Steps     int    `json:"steps"`
	Batch     int    `json:"batch,omitempty"`
	BatchSize int    `json:"batch_size,omitempty"`
	Status    int    `json:"status"`

	StartUS     int64 `json:"start_us"`                // handler entry
	EnqueueUS   int64 `json:"enqueue_us,omitempty"`    // admitted to the step queue
	DequeueUS   int64 `json:"dequeue_us,omitempty"`    // batcher picked the batch up
	ExecBeginUS int64 `json:"exec_begin_us,omitempty"` // pool worker holds the session lock
	ExecEndUS   int64 `json:"exec_end_us,omitempty"`   // sim.Run returned
	BarrierUS   int64 `json:"barrier_us,omitempty"`    // the batch's latch opened
	ReplyUS     int64 `json:"reply_us,omitempty"`      // handler got the result; serialize begins
	DoneUS      int64 `json:"done_us"`                 // response body written

	QueueWaitUS int64 `json:"queue_wait_us"`
	BatchWaitUS int64 `json:"batch_wait_us"`
	ComputeUS   int64 `json:"compute_us"`
	// StragglerUS is how long the batch barrier stayed closed after this
	// request's own compute finished — cost this request imposed on the
	// batcher's next pickup, not a component of this request's latency
	// (the reply is sent before the barrier trips).
	StragglerUS int64 `json:"straggler_us"`
	SerializeUS int64 `json:"serialize_us"`

	Phases []ReqPhaseSpan `json:"phases,omitempty"`

	// pending counts the writers still filling the record (handler +
	// batch side); the last one to finish publishes it to the ring.
	pending atomic.Int32
	log     *traceLog
}

// finishWriter retires one of the trace's writers and publishes the record
// once both are done.
func (rt *RequestTrace) finishWriter() {
	if rt.pending.Add(-1) == 0 && rt.log != nil {
		rt.log.add(rt)
	}
}

// traceLog is the bounded ring of completed request traces, the backing
// store of /v1/trace and the referent set every exported exemplar is
// filtered against. Mutex-guarded: it is touched once per *sampled*
// request completion and on export, never on the per-request fast path.
type traceLog struct {
	mu    sync.Mutex
	buf   []*RequestTrace
	next  int
	total int64
}

func newTraceLog(capacity int) *traceLog {
	return &traceLog{buf: make([]*RequestTrace, 0, capacity)}
}

func (l *traceLog) add(rt *RequestTrace) {
	l.mu.Lock()
	if cap(l.buf) == 0 {
		l.mu.Unlock()
		return
	}
	if len(l.buf) < cap(l.buf) {
		l.buf = append(l.buf, rt)
	} else {
		l.buf[l.next] = rt
	}
	l.next = (l.next + 1) % cap(l.buf)
	l.total++
	l.mu.Unlock()
}

// snapshot returns the retained traces ordered oldest-first.
func (l *traceLog) snapshot() []*RequestTrace {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]*RequestTrace, 0, len(l.buf))
	if len(l.buf) < cap(l.buf) {
		out = append(out, l.buf...)
		return out
	}
	out = append(out, l.buf[l.next:]...)
	out = append(out, l.buf[:l.next]...)
	return out
}

// ids returns the set of retained trace ids — what exported exemplars are
// filtered against so every exemplar resolves to a span tree.
func (l *traceLog) ids() map[string]bool {
	set := map[string]bool{}
	for _, rt := range l.snapshot() {
		set[rt.TraceID] = true
	}
	return set
}

// batchSpan is one batcher pickup: the tid-0 track /v1/trace stitches the
// request lanes against (the serve-level analogue of PR 5's barrier track).
type batchSpan struct {
	Seq     int
	Size    int
	BeginUS int64
	EndUS   int64
}

// batchLog is the bounded ring of recent batch spans. Single producer (the
// batcher goroutine); the mutex is for export readers.
type batchLog struct {
	mu   sync.Mutex
	buf  []batchSpan
	next int
}

func newBatchLog(capacity int) *batchLog {
	return &batchLog{buf: make([]batchSpan, 0, capacity)}
}

func (l *batchLog) add(b batchSpan) {
	l.mu.Lock()
	if cap(l.buf) == 0 {
		l.mu.Unlock()
		return
	}
	if len(l.buf) < cap(l.buf) {
		l.buf = append(l.buf, b)
	} else {
		l.buf[l.next] = b
	}
	l.next = (l.next + 1) % cap(l.buf)
	l.mu.Unlock()
}

func (l *batchLog) snapshot() []batchSpan {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]batchSpan, 0, len(l.buf))
	if len(l.buf) < cap(l.buf) {
		out = append(out, l.buf...)
	} else {
		out = append(out, l.buf[l.next:]...)
		out = append(out, l.buf[:l.next]...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].BeginUS < out[j].BeginUS })
	return out
}

// drainRequestPhases collects the engine-phase spans the tenant recorder
// saw during this request's compute window, re-based onto the service
// clock. Called under sess.mu (the drain cursor is session state), right
// after sim.Run, by the pool worker executing the step — the tenant engine
// is serial, so its phase begin/end events pair up like brackets. sinceUS
// (tenant clock) fences off events left in the ring by earlier untraced
// requests; offsetUS rebases the tenant recorder's timebase onto the
// service one; spans are clamped into [beginUS, endUS] so clock skew
// between the two time reads can never make a child span escape its parent.
func drainRequestPhases(sess *Session, sinceUS, offsetUS, beginUS, endUS int64) []ReqPhaseSpan {
	var spans []ReqPhaseSpan
	open := map[string]int64{}
	clamp := func(us int64) int64 {
		if us < beginUS {
			return beginUS
		}
		if us > endUS {
			return endUS
		}
		return us
	}
	sess.cursor.Lost = 0
	sess.rec.Drain(&sess.cursor, func(owner int, e telemetry.Event) {
		if owner != -1 || e.Phase == "" || e.AtUS < sinceUS {
			return // only coordinator phase events from this compute window
		}
		switch e.Kind {
		case "phase-begin":
			open[e.Phase] = e.AtUS
		case "phase-end":
			b, ok := open[e.Phase]
			if !ok {
				return // begin fell off the ring; drop the half-span
			}
			delete(open, e.Phase)
			spans = append(spans, ReqPhaseSpan{
				Phase:   e.Phase,
				BeginUS: clamp(b + offsetUS),
				EndUS:   clamp(e.AtUS + offsetUS),
			})
		}
	})
	return spans
}

// WriteRequestTrace exports the retained request traces plus the batch
// track as Chrome trace-event JSON (the /v1/trace body). Requests overlap
// in time, and a Chrome-trace track is a stack, so concurrent requests are
// laid out on parallel lanes: each trace takes the first lane free at its
// start time (greedy interval coloring) — under load the lane count ≈ the
// client concurrency, which is itself worth seeing in the viewer.
func (s *Server) WriteRequestTrace(w io.Writer) error {
	traces := s.reqTraces.snapshot()
	batches := s.batchSpans.snapshot()

	tracks := []tracing.Track{{Tid: 0, Name: "batcher (batches)", SortIndex: -1}}
	var spans []tracing.Span
	for _, b := range batches {
		spans = append(spans, tracing.Span{
			Name: "batch", Cat: "batch", Tid: 0, BeginUS: b.BeginUS, EndUS: b.EndUS,
			Args: map[string]any{"seq": b.Seq, "size": b.Size},
		})
	}

	sort.SliceStable(traces, func(i, j int) bool { return traces[i].StartUS < traces[j].StartUS })
	var laneEnd []int64
	for _, rt := range traces {
		lane := -1
		for i, end := range laneEnd {
			if end <= rt.StartUS {
				lane = i
				break
			}
		}
		if lane < 0 {
			lane = len(laneEnd)
			laneEnd = append(laneEnd, 0)
		}
		laneEnd[lane] = rt.DoneUS
		spans = append(spans, requestSpans(rt, lane+1)...)
	}
	for lane := range laneEnd {
		tracks = append(tracks, tracing.Track{
			Tid: lane + 1, Name: "request lane " + strconv.Itoa(lane), SortIndex: lane + 1,
		})
	}
	return tracing.WriteSpans(w, "mwserved requests", tracks, spans, nil)
}

// requestSpans lays one trace out as a span tree on its lane: the outer
// request span, then the sequential queue-wait → batch-assembly → compute →
// serialize children, with the tenant's engine phases nested inside
// compute. Stamps are clamped to a monotone sequence so a record truncated
// by an error path still renders as a valid (if partial) tree.
func requestSpans(rt *RequestTrace, tid int) []tracing.Span {
	out := make([]tracing.Span, 0, 5+len(rt.Phases))
	args := map[string]any{
		"trace_id": rt.TraceID, "span_id": rt.SpanID,
		"session": rt.Session, "workload": rt.Workload,
		"steps": rt.Steps, "status": rt.Status,
	}
	if rt.Batch != 0 {
		args["batch"] = rt.Batch
		args["batch_size"] = rt.BatchSize
	}
	if rt.StragglerUS > 0 {
		args["straggler_share_us"] = rt.StragglerUS
	}
	done := rt.DoneUS
	if done < rt.StartUS {
		done = rt.StartUS
	}
	out = append(out, tracing.Span{
		Name: "request:step", Cat: "request", Tid: tid,
		BeginUS: rt.StartUS, EndUS: done, Args: args,
	})
	child := func(name string, begin, end int64) {
		if begin <= 0 || end <= 0 {
			return
		}
		if begin < rt.StartUS {
			begin = rt.StartUS
		}
		if end > done {
			end = done
		}
		if end < begin {
			end = begin
		}
		out = append(out, tracing.Span{Name: name, Cat: "request", Tid: tid, BeginUS: begin, EndUS: end})
	}
	child("queue-wait", rt.EnqueueUS, rt.DequeueUS)
	child("batch-assembly", rt.DequeueUS, rt.ExecBeginUS)
	child("compute", rt.ExecBeginUS, rt.ExecEndUS)
	child("serialize", rt.ReplyUS, rt.DoneUS)
	for _, ph := range rt.Phases {
		b, e := ph.BeginUS, ph.EndUS
		if b < rt.ExecBeginUS {
			b = rt.ExecBeginUS
		}
		if e > rt.ExecEndUS {
			e = rt.ExecEndUS
		}
		if e < b {
			continue
		}
		out = append(out, tracing.Span{Name: ph.Phase, Cat: "phase", Tid: tid, BeginUS: b, EndUS: e})
	}
	return out
}
