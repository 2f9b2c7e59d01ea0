// Package perfmon reproduces the performance-monitoring substrate the paper
// evaluates in §IV:
//
//   - monitors in the style of the Java Application Monitor (JaMON), in
//     three synchronization flavors — a global-mutex monitor (JaMON's
//     synchronized sections, whose updates "were serializing the overall
//     performance of MW"), an atomic-counter monitor, and a per-thread
//     sharded monitor — so the observer effect can be measured rather than
//     suffered;
//
//   - a sampling profiler over thread-state timelines with configurable
//     period, reproducing §IV-B: samplers at 1 s (VisualVM) or 5–10 ms
//     (VTune) against 80–5000 µs work units see only the most severe
//     imbalance and display stale states as false positives;
//
//   - a timeline builder that records ground truth from real engine runs.
//
// Both the monitors (through MonitorSink) and the timeline Recorder attach
// to the engine as telemetry.Sinks, its one observer hook.
package perfmon

import (
	"sync"
	"sync/atomic"
	"time"
)

// Monitor accumulates named durations reported by multiple workers — the
// JaMON role. Implementations differ only in their synchronization, which
// is exactly what the observer-effect experiment varies.
type Monitor interface {
	// Record adds one observation for a label from a worker.
	Record(worker int, label string, d time.Duration)
	// Total returns the accumulated duration for a label.
	Total(label string) time.Duration
	// Count returns the number of observations for a label.
	Count(label string) int64
	// Name identifies the synchronization flavor.
	Name() string
}

// SyncMonitor guards a shared map with one mutex — the JaMON design. Every
// Record from every worker serializes on the same lock.
type SyncMonitor struct {
	mu     sync.Mutex
	totals map[string]time.Duration
	counts map[string]int64
}

// NewSyncMonitor returns an empty synchronized monitor.
func NewSyncMonitor() *SyncMonitor {
	return &SyncMonitor{totals: map[string]time.Duration{}, counts: map[string]int64{}}
}

// Record implements Monitor.
func (m *SyncMonitor) Record(_ int, label string, d time.Duration) {
	m.mu.Lock()
	m.totals[label] += d
	m.counts[label]++
	m.mu.Unlock()
}

// Total implements Monitor.
func (m *SyncMonitor) Total(label string) time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.totals[label]
}

// Count implements Monitor.
func (m *SyncMonitor) Count(label string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counts[label]
}

// Name implements Monitor.
func (m *SyncMonitor) Name() string { return "synchronized" }

// AtomicMonitor keeps one pair of atomic counters per label. Labels must be
// pre-registered so the hot path is lock-free.
type AtomicMonitor struct {
	mu    sync.RWMutex
	slots map[string]*atomicSlot
}

type atomicSlot struct {
	nanos atomic.Int64
	count atomic.Int64
}

// NewAtomicMonitor returns a monitor with the given pre-registered labels.
func NewAtomicMonitor(labels ...string) *AtomicMonitor {
	m := &AtomicMonitor{slots: map[string]*atomicSlot{}}
	for _, l := range labels {
		m.slots[l] = &atomicSlot{}
	}
	return m
}

func (m *AtomicMonitor) slot(label string) *atomicSlot {
	m.mu.RLock()
	s := m.slots[label]
	m.mu.RUnlock()
	if s != nil {
		return s
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if s = m.slots[label]; s == nil {
		s = &atomicSlot{}
		m.slots[label] = s
	}
	return s
}

// Record implements Monitor.
func (m *AtomicMonitor) Record(_ int, label string, d time.Duration) {
	s := m.slot(label)
	s.nanos.Add(int64(d))
	s.count.Add(1)
}

// Total implements Monitor.
func (m *AtomicMonitor) Total(label string) time.Duration {
	return time.Duration(m.slot(label).nanos.Load())
}

// Count implements Monitor.
func (m *AtomicMonitor) Count(label string) int64 { return m.slot(label).count.Load() }

// Name implements Monitor.
func (m *AtomicMonitor) Name() string { return "atomic" }

// ShardedMonitor gives each worker a private shard, padded to a cache line
// to avoid false sharing; reads aggregate across shards. Record is
// contention-free — the design the paper's conclusions call for ("less
// timing-intrusive").
type ShardedMonitor struct {
	mu     sync.RWMutex
	labels map[string]int
	shards [][]paddedSlot // [worker][labelIdx]
}

type paddedSlot struct {
	nanos int64
	count int64
	_     [48]byte // pad to a 64-byte line
}

// NewShardedMonitor creates a monitor for a fixed worker count and label
// set (both must be known up front; that is the price of zero contention).
func NewShardedMonitor(workers int, labels ...string) *ShardedMonitor {
	m := &ShardedMonitor{labels: map[string]int{}}
	for i, l := range labels {
		m.labels[l] = i
	}
	m.shards = make([][]paddedSlot, workers)
	for w := range m.shards {
		m.shards[w] = make([]paddedSlot, len(labels))
	}
	return m
}

// Record implements Monitor. Unknown labels or workers are dropped (the
// fixed layout is the point).
func (m *ShardedMonitor) Record(worker int, label string, d time.Duration) {
	m.mu.RLock()
	idx, ok := m.labels[label]
	m.mu.RUnlock()
	if !ok || worker < 0 || worker >= len(m.shards) {
		return
	}
	s := &m.shards[worker][idx]
	s.nanos += int64(d)
	s.count++
}

// Total implements Monitor.
func (m *ShardedMonitor) Total(label string) time.Duration {
	m.mu.RLock()
	idx, ok := m.labels[label]
	m.mu.RUnlock()
	if !ok {
		return 0
	}
	var n int64
	for w := range m.shards {
		n += m.shards[w][idx].nanos
	}
	return time.Duration(n)
}

// Count implements Monitor.
func (m *ShardedMonitor) Count(label string) int64 {
	m.mu.RLock()
	idx, ok := m.labels[label]
	m.mu.RUnlock()
	if !ok {
		return 0
	}
	var n int64
	for w := range m.shards {
		n += m.shards[w][idx].count
	}
	return n
}

// WorkerTotal returns one worker's accumulated duration for a label.
func (m *ShardedMonitor) WorkerTotal(worker int, label string) time.Duration {
	m.mu.RLock()
	idx, ok := m.labels[label]
	m.mu.RUnlock()
	if !ok {
		return 0
	}
	return time.Duration(m.shards[worker][idx].nanos)
}

// Name implements Monitor.
func (m *ShardedMonitor) Name() string { return "sharded" }

// Stopwatch is JaMON's paired start/stop API over any Monitor: callers
// bracket a region with StartWatch / Stop and the elapsed time lands in the
// monitor under the label.
type Stopwatch struct {
	m      Monitor
	worker int
	label  string
	t0     time.Time
}

// StartWatch begins timing a region for a worker.
func StartWatch(m Monitor, worker int, label string) *Stopwatch {
	return &Stopwatch{m: m, worker: worker, label: label, t0: time.Now()}
}

// Stop records the elapsed time and returns it. Stop is idempotent only in
// the sense that each call records a fresh observation from the same start.
func (s *Stopwatch) Stop() time.Duration {
	d := time.Since(s.t0)
	s.m.Record(s.worker, s.label, d)
	return d
}
