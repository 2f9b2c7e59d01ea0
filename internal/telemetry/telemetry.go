// Package telemetry is the engine's always-compiled-in runtime
// instrumentation layer — the "less timing-intrusive" monitor the paper's
// §IV conclusions call for. Where internal/perfmon *simulates* the Java
// tools of §IV on a model timeline, this package instruments the real Go
// engine: per-worker lock-free ring buffers of phase/chunk/steal/park
// events, log-bucketed latency histograms per phase, and an HTTP snapshot
// endpoint for live inspection (cmd/mwtop).
//
// The design budget is the lesson of §IV-A: an observer must cost so little
// that it does not distort what it measures. Every record path is a handful
// of arithmetic ops and uncontended atomic stores into per-worker state —
// no locks, no maps, no allocation (the paths are //mw:hotpath, so mwlint's
// hotalloc analyzer and the escape-budget gate enforce that). The
// `mwbench observer-native` experiment re-runs the paper's observer-effect
// methodology on this very package and gates the build on a <2% overhead,
// against a deliberately JaMON-like mutex-per-event control (perfmon's
// synchronized monitor attached as a Sink) that demonstrably fails the
// same budget.
package telemetry

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Kind classifies one recorded event.
type Kind uint8

const (
	// KindNone marks an empty ring slot.
	KindNone Kind = iota
	// KindPhaseBegin: the coordinator started fanning out a phase.
	KindPhaseBegin
	// KindPhaseEnd: the phase barrier completed.
	KindPhaseEnd
	// KindChunk: a worker finished one work chunk.
	KindChunk
	// KindSteal: a worker took a task from another worker's deque.
	KindSteal
	// KindPark: a worker waited for work (duration in the park counters).
	KindPark
	// KindStep: a full timestep completed.
	KindStep
)

// String returns the event-kind name.
func (k Kind) String() string {
	switch k {
	case KindPhaseBegin:
		return "phase-begin"
	case KindPhaseEnd:
		return "phase-end"
	case KindChunk:
		return "chunk"
	case KindSteal:
		return "steal"
	case KindPark:
		return "park"
	case KindStep:
		return "step"
	}
	return "none"
}

// Sink receives engine instrumentation events. The engine's schedule paths
// and the pool executors call it on their hot paths, so implementations
// must be safe for concurrent use and should be cheap. Sink is the engine's
// one observer hook (core.Config.Telemetry): the ring-buffer Recorder is the
// production implementation; internal/perfmon's monitors and timeline
// recorder attach here too, for the observer-effect experiments.
type Sink interface {
	// PhaseBegin is called by the coordinator before fanning out a phase.
	PhaseBegin(step int, phase uint8)
	// PhaseEnd is called after the phase barrier with the wall time and
	// each worker's busy time. workerBusy aliases engine storage; do not
	// retain it.
	PhaseEnd(step int, phase uint8, wall time.Duration, workerBusy []time.Duration)
	// Chunk is called by the executing worker after every work chunk.
	Chunk(worker int, phase uint8)
	// Steal is called when a worker executes a task stolen from another
	// worker's deque.
	Steal(worker int)
	// Park is called when a worker waited for work, with the wait duration.
	Park(worker int, wait time.Duration)
	// StepDone is called once per completed timestep.
	StepDone(step int)
}

// Event packing: one uint64 per event so ring slots are single atomic words
// and snapshots can never observe a torn event.
//
//	[63:61] kind   (3 bits)
//	[60:58] phase  (3 bits; 7 = no phase)
//	[57:38] step   (20 bits, wraps)
//	[37:0]  µs since recorder start (38 bits ≈ 76 h)
const (
	kindShift  = 61
	phaseShift = 58
	stepShift  = 38
	phaseNone  = 0x7
	stepMask   = 1<<20 - 1
	usMask     = 1<<38 - 1
)

//mw:hotpath
func packEvent(k Kind, phase uint8, step int, us int64) uint64 {
	return uint64(k)<<kindShift |
		uint64(phase&0x7)<<phaseShift |
		uint64(step&stepMask)<<stepShift |
		uint64(us)&usMask
}

// Event is one decoded telemetry event.
type Event struct {
	Worker int    `json:"worker"` // -1 for coordinator events
	Kind   string `json:"kind"`
	Phase  string `json:"phase,omitempty"`
	Step   int    `json:"step"`
	AtUS   int64  `json:"at_us"` // µs since recorder start
}

// ring is a single-producer lock-free ring buffer of packed events. The
// producer (one worker goroutine, or the coordinator) stores the event word
// and then advances head; slots are atomic words, so concurrent snapshot
// readers see a consistent (if slightly stale) recent-event window without
// any lock and without perturbing the producer.
type ring struct {
	mask uint64
	// head is the single-producer write cursor; only push advances it, and
	// atomiccheck enforces that no other function ever will.
	//
	//mw:ring(writer=push)
	head  atomic.Uint64
	slots []atomic.Uint64
}

func newRing(capacity int) ring {
	if capacity <= 0 {
		capacity = 4096
	}
	// Round up to a power of two for mask indexing.
	c := 1 << bits.Len(uint(capacity-1))
	return ring{mask: uint64(c - 1), slots: make([]atomic.Uint64, c)}
}

//mw:hotpath
func (r *ring) push(ev uint64) {
	h := r.head.Load() // single producer: plain load-modify-store ordering
	r.slots[h&r.mask].Store(ev)
	r.head.Store(h + 1)
}

// snapshot copies up to max most-recent events, oldest first.
func (r *ring) snapshot(max int) []uint64 {
	h := r.head.Load()
	n := int(h)
	if n > len(r.slots) {
		n = len(r.slots)
	}
	if max > 0 && n > max {
		n = max
	}
	out := make([]uint64, 0, n)
	for i := h - uint64(n); i != h; i++ {
		if ev := r.slots[i&r.mask].Load(); ev != 0 {
			out = append(out, ev)
		}
	}
	return out
}

// shard is one worker's private telemetry state. Counters are written only
// by the owning worker (or, for the histograms and blame counters, only by
// the coordinator at phase barriers), so every update is an uncontended
// atomic on a line no other writer touches — the sharded-monitor design
// §IV-A found necessary.
type shard struct {
	ring      ring
	hist      []Histogram // per phase: busy time (workers), wall time (coordinator)
	chunks    atomic.Int64
	steals    atomic.Int64
	parks     atomic.Int64
	parkNanos atomic.Int64
	// Barrier-straggler blame, written by the coordinator in PhaseEnd: how
	// many phase instances this worker finished last (per phase), and the
	// total time it held the barrier past the median worker.
	blame     []atomic.Int64 // per phase: times straggler
	lateNanos atomic.Int64   // total lateness vs the median worker
	_         [24]byte       // keep neighboring shards' counters off one line
}

// Recorder is the ring-buffer Sink. One shard per worker plus a coordinator
// shard (index workers) for phase begin/end and step events.
type Recorder struct {
	start  time.Time
	phases []string
	shards []shard
	steps  atomic.Int64
	// usHint is a coarse µs-since-start clock refreshed by the coordinator
	// at every phase boundary and step. Worker-side events (chunks, steals)
	// stamp themselves from it with one atomic load instead of calling the
	// time source — on chunk rates of ~100k/s the nanotime call would be
	// most of the monitor's cost. Worker events therefore carry their
	// phase's begin time; ring order still disambiguates within a phase.
	usHint  atomic.Int64
	dropped atomic.Int64 // events with out-of-range worker ids
	// busyScratch is the coordinator-only sort buffer for the PhaseEnd
	// straggler attribution; preallocated so the attribution never touches
	// the heap on the record path.
	busyScratch []time.Duration
	released    atomic.Bool
}

// liveRings counts recorders created and not yet released. Ring storage is
// ordinary GC-managed memory, so this is a liveness ledger, not an
// allocator: a server that creates a recorder per tenant must Release each
// one on eviction, and a leak regression test can assert the count returns
// to baseline after a GC sweep (the per-tenant-ring satellite of the
// serve-observability work).
var liveRings atomic.Int64

// LiveRings returns how many recorders exist that have not been Released.
func LiveRings() int64 { return liveRings.Load() }

// NewRecorder creates a recorder for the given worker count and phase-name
// table (phase codes index into it; at most 7 phases fit the event format).
func NewRecorder(workers int, phases []string) *Recorder {
	return NewRecorderSize(workers, phases, 4096)
}

// NewRecorderSize creates a recorder with an explicit per-worker ring
// capacity (rounded up to a power of two).
func NewRecorderSize(workers int, phases []string, ringCap int) *Recorder {
	if workers < 1 {
		workers = 1
	}
	if len(phases) > 7 {
		phases = phases[:7]
	}
	r := &Recorder{
		start:       time.Now(),
		phases:      append([]string(nil), phases...),
		shards:      make([]shard, workers+1),
		busyScratch: make([]time.Duration, workers),
	}
	for i := range r.shards {
		r.shards[i].ring = newRing(ringCap)
		r.shards[i].hist = make([]Histogram, len(phases))
		r.shards[i].blame = make([]atomic.Int64, len(phases))
	}
	liveRings.Add(1)
	return r
}

// Release marks the recorder's rings dead in the LiveRings ledger.
// Idempotent. It deliberately does not nil out the ring storage — snapshot
// readers and late producers may still hold the recorder, and the memory is
// reclaimed by the GC once the last reference drops; Release exists so that
// owners (one recorder per tenant session in internal/serve) account for
// that drop explicitly and tests can catch eviction paths that forget to.
func (r *Recorder) Release() {
	if r.released.CompareAndSwap(false, true) {
		liveRings.Add(-1)
	}
}

// Workers returns the worker count the recorder was sized for.
func (r *Recorder) Workers() int { return len(r.shards) - 1 }

// PhaseNames returns the phase-name table.
func (r *Recorder) PhaseNames() []string { return r.phases }

//mw:hotpath
func (r *Recorder) nowUS() int64 { return int64(time.Since(r.start) / time.Microsecond) }

//mw:hotpath
func (r *Recorder) coord() *shard { return &r.shards[len(r.shards)-1] }

// PhaseBegin implements Sink: one event in the coordinator ring, and a
// refresh of the coarse clock worker events stamp themselves from.
//
//mw:hotpath
func (r *Recorder) PhaseBegin(step int, phase uint8) {
	us := r.nowUS()
	r.usHint.Store(us)
	r.coord().ring.push(packEvent(KindPhaseBegin, phase, step, us))
}

// PhaseEnd implements Sink: an event in the coordinator ring, the wall time
// into the coordinator's per-phase histogram, and each worker's busy time
// into that worker's per-phase histogram. Called only by the coordinator,
// so the worker histograms stay single-writer.
//
//mw:hotpath
func (r *Recorder) PhaseEnd(step int, phase uint8, wall time.Duration, workerBusy []time.Duration) {
	us := r.nowUS()
	r.usHint.Store(us)
	c := r.coord()
	c.ring.push(packEvent(KindPhaseEnd, phase, step, us))
	if int(phase) >= len(c.hist) {
		return
	}
	c.hist[phase].Observe(wall)
	n := len(r.shards) - 1
	if len(workerBusy) < n {
		n = len(workerBusy)
	}
	for w := 0; w < n; w++ {
		r.shards[w].hist[phase].Observe(workerBusy[w])
	}
	r.attributeStraggler(phase, workerBusy[:n])
}

// attributeStraggler charges this phase instance's barrier critical path to
// the worker that finished last: the straggler's blame counter for the phase
// is bumped and its lateness — how long it kept the barrier closed past the
// median worker — accumulated. Coordinator-only, allocation-free (the sort
// scratch is preallocated), so it rides PhaseEnd without touching the
// observer budget.
//
//mw:hotpath
func (r *Recorder) attributeStraggler(phase uint8, busy []time.Duration) {
	if len(busy) < 2 {
		return
	}
	straggler := 0
	for w := 1; w < len(busy); w++ {
		if busy[w] > busy[straggler] {
			straggler = w
		}
	}
	// Insertion sort into the scratch buffer: worker counts are single
	// digits, so this is a handful of compares, not a heap allocation.
	s := r.busyScratch[:0]
	for _, b := range busy {
		s = append(s, b)
		for i := len(s) - 1; i > 0 && s[i-1] > s[i]; i-- {
			s[i-1], s[i] = s[i], s[i-1]
		}
	}
	late := busy[straggler] - s[len(s)/2]
	sh := &r.shards[straggler]
	sh.blame[phase].Add(1)
	sh.lateNanos.Add(int64(late))
}

// Chunk implements Sink: the finest-grained event, one ring push in the
// executing worker's shard. This is the path whose cost the observer-native
// experiment gates.
//
//mw:hotpath
func (r *Recorder) Chunk(worker int, phase uint8) {
	if worker < 0 || worker >= len(r.shards)-1 {
		r.dropped.Add(1)
		return
	}
	s := &r.shards[worker]
	s.ring.push(packEvent(KindChunk, phase, int(r.steps.Load()), r.usHint.Load()))
	s.chunks.Add(1)
}

// Steal implements Sink.
//
//mw:hotpath
func (r *Recorder) Steal(worker int) {
	if worker < 0 || worker >= len(r.shards)-1 {
		r.dropped.Add(1)
		return
	}
	s := &r.shards[worker]
	s.ring.push(packEvent(KindSteal, phaseNone, int(r.steps.Load()), r.usHint.Load()))
	s.steals.Add(1)
}

// Park implements Sink.
//
//mw:hotpath
func (r *Recorder) Park(worker int, wait time.Duration) {
	if worker < 0 || worker >= len(r.shards)-1 {
		r.dropped.Add(1)
		return
	}
	s := &r.shards[worker]
	s.ring.push(packEvent(KindPark, phaseNone, int(r.steps.Load()), r.nowUS()))
	s.parks.Add(1)
	s.parkNanos.Add(int64(wait))
}

// StepDone implements Sink.
//
//mw:hotpath
func (r *Recorder) StepDone(step int) {
	us := r.nowUS()
	r.usHint.Store(us)
	r.steps.Store(int64(step))
	r.coord().ring.push(packEvent(KindStep, phaseNone, step, us))
}

// Steps returns the last completed timestep.
func (r *Recorder) Steps() int64 { return r.steps.Load() }

// NowMicros returns the recorder's clock: µs since it was created — the
// timebase every recorded event is stamped in.
func (r *Recorder) NowMicros() int64 { return r.nowUS() }

// EventCapacity returns the total number of ring slots across all shards —
// the most events one Snapshot or Drain can ever return.
func (r *Recorder) EventCapacity() int {
	n := 0
	for i := range r.shards {
		n += len(r.shards[i].ring.slots)
	}
	return n
}

// DrainCursor remembers per-shard ring positions between Drain calls. The
// zero value starts at the beginning of every ring.
type DrainCursor struct {
	heads []uint64
	// Lost counts events that were overwritten before the cursor reached
	// them (the consumer drained too rarely for the ring capacity).
	Lost int64
}

// Drain decodes every event recorded since the cursor's previous position
// and advances the cursor. It reads only atomic ring state, so it is safe
// to call while producers keep recording; events pushed concurrently are
// picked up by the next call. This is the feed for internal/tracing: the
// span builder drains at step barriers, off the workers' critical paths.
func (r *Recorder) Drain(c *DrainCursor, emit func(owner int, e Event)) {
	if c.heads == nil {
		c.heads = make([]uint64, len(r.shards))
	}
	for i := range r.shards {
		rg := &r.shards[i].ring
		h := rg.head.Load()
		lo := c.heads[i]
		if h-lo > uint64(len(rg.slots)) {
			c.Lost += int64(h - lo - uint64(len(rg.slots)))
			lo = h - uint64(len(rg.slots))
		}
		owner := i
		if i == len(r.shards)-1 {
			owner = -1 // coordinator shard
		}
		for j := lo; j != h; j++ {
			if ev := rg.slots[j&rg.mask].Load(); ev != 0 {
				emit(owner, r.decode(owner, ev))
			}
		}
		c.heads[i] = h
	}
}

// Seek advances the cursor to every ring's current head without decoding
// the skipped events — O(shards), not O(backlog). The serve layer uses it
// to open a traced request's drain window: whatever untraced requests left
// in the rings is skipped in constant time instead of being walked and
// filtered out, which matters because the skip runs inside the traced
// request's compute window (the observer-overhead gate watches it).
func (r *Recorder) Seek(c *DrainCursor) {
	if c.heads == nil {
		c.heads = make([]uint64, len(r.shards))
	}
	for i := range r.shards {
		c.heads[i] = r.shards[i].ring.head.Load()
	}
}

// Uptime returns the time since the recorder was created.
func (r *Recorder) Uptime() time.Duration { return time.Since(r.start) }

// decode unpacks a packed event from shard owner (worker index, or -1 for
// the coordinator shard).
func (r *Recorder) decode(owner int, ev uint64) Event {
	k := Kind(ev >> kindShift)
	ph := uint8(ev>>phaseShift) & 0x7
	e := Event{
		Worker: owner,
		Kind:   k.String(),
		Step:   int(ev >> stepShift & stepMask),
		AtUS:   int64(ev & usMask),
	}
	if ph != phaseNone && int(ph) < len(r.phases) {
		e.Phase = r.phases[ph]
	}
	return e
}
