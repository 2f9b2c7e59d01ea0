package serve

import (
	"sort"
	"sync"
	"time"
)

// Per-tenant SLO tracking: the target is a p99 latency, so the error
// budget is 1% — a request is "bad" when it exceeds the target or is shed,
// and the burn rate is the bad fraction divided by that 1% budget (burn 1.0
// = exactly spending the budget, >1 = on track to violate the SLO). Burn is
// computed over two rotating windows (the multiwindow alerting shape: the
// fast window catches an acute regression, the slow one a sustained one).

// sloBudget is the allowed bad fraction implied by a p99 target.
const sloBudget = 0.01

// sloBucketCount is the rotation granularity of each burn window: burn
// reads cover between (N-1)/N and N/N of the nominal window length.
const sloBucketCount = 6

// sloWindow is one rotating-bucket counter window. Mutex-guarded; it is
// touched once per request completion, which is noise next to a step.
type sloWindow struct {
	mu       sync.Mutex
	span     time.Duration
	buckets  [sloBucketCount]struct{ total, bad int64 }
	cur      int
	rotateAt time.Time
}

func (w *sloWindow) init(span time.Duration, now time.Time) {
	w.span = span
	w.rotateAt = now.Add(span / sloBucketCount)
}

// rotate advances the ring past any expired bucket boundaries. Called with
// the lock held.
func (w *sloWindow) rotate(now time.Time) {
	width := w.span / sloBucketCount
	for !now.Before(w.rotateAt) {
		w.cur = (w.cur + 1) % sloBucketCount
		w.buckets[w.cur] = struct{ total, bad int64 }{}
		w.rotateAt = w.rotateAt.Add(width)
		// A long quiet gap: skip ahead instead of looping bucket by bucket.
		if now.Sub(w.rotateAt) > w.span {
			w.rotateAt = now.Add(width)
			for i := range w.buckets {
				w.buckets[i] = struct{ total, bad int64 }{}
			}
		}
	}
}

func (w *sloWindow) record(bad bool, now time.Time) {
	w.mu.Lock()
	w.rotate(now)
	w.buckets[w.cur].total++
	if bad {
		w.buckets[w.cur].bad++
	}
	w.mu.Unlock()
}

// burn returns the window's burn rate and its request count.
func (w *sloWindow) burn(now time.Time) (float64, int64) {
	w.mu.Lock()
	w.rotate(now)
	var total, bad int64
	for _, b := range w.buckets {
		total += b.total
		bad += b.bad
	}
	w.mu.Unlock()
	if total == 0 {
		return 0, 0
	}
	return float64(bad) / float64(total) / sloBudget, total
}

// sloTracker scores one scope (the whole service, or one tenant) against
// the p99 target.
type sloTracker struct {
	target time.Duration
	fast   sloWindow
	slow   sloWindow

	mu    sync.Mutex
	total int64
	bad   int64
}

func newSLOTracker(target, fastWin, slowWin time.Duration) *sloTracker {
	t := &sloTracker{target: target}
	now := time.Now()
	t.fast.init(fastWin, now)
	t.slow.init(slowWin, now)
	return t
}

// record scores one request. Shed requests count as bad with no latency.
func (t *sloTracker) record(lat time.Duration, shed bool) {
	bad := shed || lat > t.target
	now := time.Now()
	t.mu.Lock()
	t.total++
	if bad {
		t.bad++
	}
	t.mu.Unlock()
	t.fast.record(bad, now)
	t.slow.record(bad, now)
}

// SLOStatus is one scope's exported SLO state.
type SLOStatus struct {
	Requests   int64   `json:"requests"`
	Bad        int64   `json:"bad"`
	BadPct     float64 `json:"bad_pct"`
	FastBurn   float64 `json:"fast_burn"`
	FastWindow int64   `json:"fast_window_requests"`
	SlowBurn   float64 `json:"slow_burn"`
	SlowWindow int64   `json:"slow_window_requests"`
}

func (t *sloTracker) status() SLOStatus {
	now := time.Now()
	t.mu.Lock()
	st := SLOStatus{Requests: t.total, Bad: t.bad}
	t.mu.Unlock()
	if st.Requests > 0 {
		st.BadPct = 100 * float64(st.Bad) / float64(st.Requests)
	}
	st.FastBurn, st.FastWindow = t.fast.burn(now)
	st.SlowBurn, st.SlowWindow = t.slow.burn(now)
	return st
}

// TenantSLO is one tenant's row in the /v1/slo body.
type TenantSLO struct {
	Session  string `json:"session"`
	Workload string `json:"workload"`
	SLOStatus
}

// SLOReport is the /v1/slo body.
type SLOReport struct {
	TargetP99Ms    float64     `json:"target_p99_ms"`
	BudgetPct      float64     `json:"budget_pct"`
	FastWindowSecs float64     `json:"fast_window_seconds"`
	SlowWindowSecs float64     `json:"slow_window_seconds"`
	Service        SLOStatus   `json:"service"`
	Tenants        []TenantSLO `json:"tenants"`
}

// SLONow assembles the current SLO report (worst fast-burn tenants first,
// capped at limit rows; limit <= 0 means all).
func (s *Server) SLONow(limit int) SLOReport {
	rep := SLOReport{
		TargetP99Ms:    float64(s.cfg.SLOTargetP99) / float64(time.Millisecond),
		BudgetPct:      100 * sloBudget,
		FastWindowSecs: s.cfg.SLOFastWindow.Seconds(),
		SlowWindowSecs: s.cfg.SLOSlowWindow.Seconds(),
		Service:        s.slo.status(),
	}
	s.mu.RLock()
	sessions := make([]*Session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.RUnlock()
	for _, sess := range sessions {
		rep.Tenants = append(rep.Tenants, TenantSLO{
			Session:   sess.ID,
			Workload:  sess.Workload,
			SLOStatus: sess.slo.status(),
		})
	}
	sort.Slice(rep.Tenants, func(i, j int) bool {
		a, b := rep.Tenants[i], rep.Tenants[j]
		if a.FastBurn != b.FastBurn {
			return a.FastBurn > b.FastBurn
		}
		if a.SlowBurn != b.SlowBurn {
			return a.SlowBurn > b.SlowBurn
		}
		return a.Session < b.Session
	})
	if limit > 0 && len(rep.Tenants) > limit {
		rep.Tenants = rep.Tenants[:limit]
	}
	return rep
}
