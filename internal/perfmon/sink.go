package perfmon

import (
	"time"

	"mw/internal/telemetry"
)

// MonitorSink attaches a Monitor to the engine's observer hook
// (core.Config.Telemetry): every event is recorded under its
// telemetry.Kind name ("chunk", "phase-end", …) with the time since the
// sink was created — the JaMON-style per-work-unit instrumentation whose
// observer effect §IV-A measures. Coordinator events (phase begin/end,
// step) arrive as worker −1, which ShardedMonitor drops. A ShardedMonitor
// should register only "chunk": a pool goroutine reports its parks under
// its own index while a task of that worker id may run on another
// goroutine, and shards are not synchronized.
type MonitorSink struct {
	m     Monitor
	start time.Time
}

// NewMonitorSink returns a sink feeding m.
func NewMonitorSink(m Monitor) *MonitorSink {
	return &MonitorSink{m: m, start: time.Now()}
}

func (s *MonitorSink) record(worker int, k telemetry.Kind) {
	s.m.Record(worker, k.String(), time.Since(s.start))
}

// PhaseBegin implements telemetry.Sink.
func (s *MonitorSink) PhaseBegin(int, uint8) { s.record(-1, telemetry.KindPhaseBegin) }

// PhaseEnd implements telemetry.Sink.
func (s *MonitorSink) PhaseEnd(int, uint8, time.Duration, []time.Duration) {
	s.record(-1, telemetry.KindPhaseEnd)
}

// Chunk implements telemetry.Sink — the per-work-unit path.
func (s *MonitorSink) Chunk(worker int, _ uint8) { s.record(worker, telemetry.KindChunk) }

// Steal implements telemetry.Sink.
func (s *MonitorSink) Steal(worker int) { s.record(worker, telemetry.KindSteal) }

// Park implements telemetry.Sink.
func (s *MonitorSink) Park(worker int, _ time.Duration) { s.record(worker, telemetry.KindPark) }

// StepDone implements telemetry.Sink.
func (s *MonitorSink) StepDone(int) { s.record(-1, telemetry.KindStep) }

// nopSink supplies the telemetry.Sink events a perfmon sink ignores.
type nopSink struct{}

func (nopSink) PhaseBegin(int, uint8)   {}
func (nopSink) Chunk(int, uint8)        {}
func (nopSink) Steal(int)               {}
func (nopSink) Park(int, time.Duration) {}
func (nopSink) StepDone(int)            {}
