package serve

import (
	"testing"
	"time"
)

// TestSLOWindowRotation drives a burn window with synthetic clock reads:
// old buckets must age out, and a long quiet gap must clear the whole ring
// instead of replaying it bucket by bucket.
func TestSLOWindowRotation(t *testing.T) {
	t0 := time.Unix(1000, 0)
	var w sloWindow
	w.init(60*time.Second, t0) // 10 s buckets

	for i := 0; i < 10; i++ {
		w.record(true, t0.Add(time.Duration(i)*time.Second))
	}
	if burn, n := w.burn(t0.Add(9 * time.Second)); n != 10 || burn != 1/sloBudget {
		t.Fatalf("all-bad window: burn=%.1f n=%d, want %.1f, 10", burn, n, 1/sloBudget)
	}

	// 30 s later the bad requests still sit inside the 60 s window.
	for i := 0; i < 10; i++ {
		w.record(false, t0.Add(30*time.Second))
	}
	if burn, n := w.burn(t0.Add(30 * time.Second)); n != 20 || burn != 0.5/sloBudget {
		t.Fatalf("half-bad window: burn=%.1f n=%d, want %.1f, 20", burn, n, 0.5/sloBudget)
	}

	// 75 s after the bad burst every bad bucket has rotated out, but the
	// good requests from +30 s are still inside the 60 s window.
	if burn, n := w.burn(t0.Add(75 * time.Second)); burn != 0 || n != 10 {
		t.Fatalf("aged-out window: burn=%.1f n=%d, want 0, 10", burn, n)
	}

	// Quiet-gap reset: a record after a multi-window silence must not see
	// stale counts.
	w.record(false, t0.Add(75*time.Second))
	w.record(true, t0.Add(10_000*time.Second))
	if burn, n := w.burn(t0.Add(10_000 * time.Second)); n != 1 || burn != 1/sloBudget {
		t.Fatalf("post-gap window: burn=%.1f n=%d, want %.1f, 1", burn, n, 1/sloBudget)
	}
}

// TestSLOTrackerRecord pins the bad-request definition: over-target
// latency or a shed request, nothing else.
func TestSLOTrackerRecord(t *testing.T) {
	tr := newSLOTracker(10*time.Millisecond, time.Minute, time.Hour)
	tr.record(time.Millisecond, false)    // good
	tr.record(20*time.Millisecond, false) // bad: over target
	tr.record(0, true)                    // bad: shed
	tr.record(10*time.Millisecond, false) // good: exactly at target
	st := tr.status()
	if st.Requests != 4 || st.Bad != 2 {
		t.Fatalf("status = %d/%d bad, want 2/4", st.Bad, st.Requests)
	}
	if st.BadPct != 50 {
		t.Errorf("BadPct = %.1f, want 50", st.BadPct)
	}
	if st.FastBurn != 50/1.0 {
		t.Errorf("FastBurn = %.1f, want 50", st.FastBurn)
	}
	if st.FastWindow != 4 || st.SlowWindow != 4 {
		t.Errorf("window counts = %d/%d, want 4/4", st.FastWindow, st.SlowWindow)
	}
}
