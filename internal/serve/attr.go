package serve

import (
	"time"

	"mw/internal/telemetry"
)

// Latency attribution: every step request's end-to-end latency decomposes
// into queue_wait (admission → batcher pickup) + batch_wait (pickup → a
// pool worker holds the session lock) + compute (sim.Run) + serialize
// (result received → response bytes written), and each component gets its
// own exemplar histogram at service level and per tenant. straggler_share
// is recorded alongside but is deliberately *not* a component of the
// request's own latency: the reply is handed back before the batch barrier
// trips, so barrier lateness is cost this request imposed on the next
// batch pickup — exactly the per-barrier lateness ROADMAP item 2 wants
// measured at the service level.
const (
	attrQueueWait = iota
	attrBatchWait
	attrCompute
	attrStraggler
	attrSerialize
	attrComponents
)

// attrNames indexes the component constants; these strings are the public
// schema (telemetry.json attribution section, docs).
var attrNames = [attrComponents]string{
	"queue_wait", "batch_wait", "compute", "straggler_share", "serialize",
}

// attrSet is one scope's (service-wide or per-tenant) component histograms.
type attrSet struct {
	h [attrComponents]telemetry.ExemplarHistogram
}

// observe records one component value; traced observations also pin the
// bucket's exemplar to the request's trace id.
func (a *attrSet) observe(component int, d time.Duration, traceID string, atUS int64) {
	if traceID != "" {
		a.h[component].ObserveTraced(d, traceID, atUS)
		return
	}
	a.h[component].Observe(d)
}

// AttrComponent is one component's exported digest.
type AttrComponent struct {
	Component string               `json:"component"`
	Latency   latencySummary       `json:"latency"`
	Exemplars []telemetry.Exemplar `json:"exemplars,omitempty"`
}

// snapshot digests the set. keep filters exemplars to trace ids that still
// resolve in the request-trace ring — the exemplar-correctness contract:
// every trace id this export names has a span tree in /v1/trace.
func (a *attrSet) snapshot(keep func(traceID string) bool) []AttrComponent {
	out := make([]AttrComponent, 0, attrComponents)
	for c := 0; c < attrComponents; c++ {
		ac := AttrComponent{Component: attrNames[c], Latency: summarize(&a.h[c].Hist)}
		for _, ex := range a.h[c].Exemplars() {
			if keep == nil || keep(ex.TraceID) {
				ac.Exemplars = append(ac.Exemplars, ex)
			}
		}
		out = append(out, ac)
	}
	return out
}
