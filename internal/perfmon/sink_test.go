package perfmon

import (
	"sync"
	"testing"
	"time"

	"mw/internal/core"
	"mw/internal/telemetry"
	"mw/internal/workload"
)

func TestMonitorSinkCounts(t *testing.T) {
	coord := []string{"phase-begin", "phase-end", "step"}
	for _, m := range []Monitor{
		NewSyncMonitor(),
		NewAtomicMonitor("chunk"),
		// Coordinator labels registered, so only the worker −1 rule can
		// keep them out of the shards.
		NewShardedMonitor(4, append([]string{"chunk"}, coord...)...),
	} {
		var sink telemetry.Sink = NewMonitorSink(m)
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 500; i++ {
					sink.Chunk(w, 2)
				}
			}(w)
		}
		sink.PhaseBegin(1, 2)
		wg.Wait()
		sink.PhaseEnd(1, 2, time.Millisecond, []time.Duration{1, 2, 3, 4})
		sink.StepDone(1)

		if got := m.Count("chunk"); got != 2000 {
			t.Errorf("%s: chunk count %d want 2000", m.Name(), got)
		}
		if m.Total("chunk") <= 0 {
			t.Errorf("%s: chunk total %v, want > 0", m.Name(), m.Total("chunk"))
		}
		want := int64(1)
		if _, sharded := m.(*ShardedMonitor); sharded {
			want = 0
		}
		for _, label := range coord {
			if got := m.Count(label); got != want {
				t.Errorf("%s: %s count %d want %d", m.Name(), label, got, want)
			}
		}
	}
}

func TestRecorderAsEngineSink(t *testing.T) {
	const steps = 7
	b := workload.LJGas(3, 100, true)
	rec := NewRecorder(core.PhaseForce, 2)
	cfg := b.Cfg
	cfg.Threads = 2
	cfg.Telemetry = rec
	sim, err := core.New(b.Sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if n := len(rec.Timeline().PhaseSpans); n != 0 {
		t.Fatalf("bootstrap recorded %d spans, want 0", n)
	}
	sim.Run(steps)
	spans := rec.Timeline().PhaseSpans
	if len(spans) != steps {
		t.Fatalf("recorded %d spans for %d steps", len(spans), steps)
	}
	for i, sp := range spans {
		if sp.Step != i+1 || len(sp.Busy) != 2 || sp.End <= sp.Start {
			t.Errorf("span %d: step %d, %d busy slots, [%v, %v)", i, sp.Step, len(sp.Busy), sp.Start, sp.End)
		}
	}
}
