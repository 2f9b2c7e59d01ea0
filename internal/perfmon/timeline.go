package perfmon

import (
	"math/rand"
	"time"

	"mw/internal/core"
	"mw/internal/stats"
)

// State is a thread's scheduling state, the quantity VisualVM's thread view
// displays and §IV-B's samplers sample.
type State int8

const (
	// StateRunning: executing work.
	StateRunning State = iota
	// StateWaiting: parked at a phase barrier.
	StateWaiting
)

// Interval is a half-open [Start, End) span of one state.
type Interval struct {
	Start, End time.Duration
	State      State
	Step       int // timestep the interval belongs to (-1 if none)
}

// Timeline is the ground-truth record of what every thread was doing — the
// information the paper's tools could only approximate by sampling.
type Timeline struct {
	Threads [][]Interval
	Horizon time.Duration
	// PhaseSpans records, per step, the span of the phase instance and the
	// per-thread busy durations in it (for true-imbalance computation).
	PhaseSpans []PhaseSpan
}

// PhaseSpan is one barriered phase instance.
type PhaseSpan struct {
	Step       int
	Start, End time.Duration
	Busy       []time.Duration
}

// Imbalance returns max/mean − 1 of the phase's per-thread busy times.
func (p PhaseSpan) Imbalance() float64 {
	loads := make([]float64, len(p.Busy))
	for i, b := range p.Busy {
		loads[i] = b.Seconds()
	}
	return stats.Imbalance(loads)
}

// StateAt returns thread th's state at time t (Waiting outside any running
// interval).
func (tl *Timeline) StateAt(th int, t time.Duration) State {
	iv := tl.Threads[th]
	lo, hi := 0, len(iv)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case t < iv[mid].Start:
			hi = mid
		case t >= iv[mid].End:
			lo = mid + 1
		default:
			return iv[mid].State
		}
	}
	return StateWaiting
}

// TrueImbalancedSteps lists the steps whose phase imbalance exceeds the
// threshold — ground truth for the sampler-detection experiment.
func (tl *Timeline) TrueImbalancedSteps(threshold float64) []int {
	var out []int
	for _, p := range tl.PhaseSpans {
		if p.Imbalance() > threshold {
			out = append(out, p.Step)
		}
	}
	return out
}

// SyntheticConfig builds a ground-truth timeline shaped like parallel MW's
// force phase: per step, each thread runs a task of roughly MeanTask, then
// waits at the barrier for the slowest. A fraction of steps inflate one
// thread's task (an imbalance event); launch skew delays task starts.
type SyntheticConfig struct {
	Threads int
	Steps   int
	// MeanTask is the typical per-thread task duration (the paper: "the
	// typical work load in MW takes between 80 and 5000 microseconds").
	MeanTask time.Duration
	// Jitter is the relative sigma of task durations (default 0.1).
	Jitter float64
	// ImbalanceEvery makes every k-th step an imbalance event in which one
	// thread's task is inflated by ImbalanceFactor (default 5 / 3.0).
	ImbalanceEvery  int
	ImbalanceFactor float64
	// Skew delays each thread's task start by up to this much (queue skew,
	// §IV-B).
	Skew time.Duration
	Seed int64
}

func (c SyntheticConfig) withDefaults() SyntheticConfig {
	if c.Threads <= 0 {
		c.Threads = 4
	}
	if c.Steps <= 0 {
		c.Steps = 100
	}
	if c.MeanTask <= 0 {
		c.MeanTask = 500 * time.Microsecond
	}
	if c.Jitter == 0 {
		c.Jitter = 0.1
	}
	if c.ImbalanceEvery <= 0 {
		c.ImbalanceEvery = 5
	}
	if c.ImbalanceFactor == 0 {
		c.ImbalanceFactor = 3
	}
	return c
}

// Synthetic generates the ground-truth timeline.
func Synthetic(cfg SyntheticConfig) *Timeline {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	tl := &Timeline{Threads: make([][]Interval, cfg.Threads)}
	var now time.Duration
	for step := 0; step < cfg.Steps; step++ {
		span := PhaseSpan{Step: step, Start: now, Busy: make([]time.Duration, cfg.Threads)}
		victim := -1
		if step%cfg.ImbalanceEvery == cfg.ImbalanceEvery-1 {
			victim = rng.Intn(cfg.Threads)
		}
		var phaseEnd time.Duration
		starts := make([]time.Duration, cfg.Threads)
		ends := make([]time.Duration, cfg.Threads)
		for th := 0; th < cfg.Threads; th++ {
			d := time.Duration(float64(cfg.MeanTask) * (1 + cfg.Jitter*rng.NormFloat64()))
			if d < cfg.MeanTask/10 {
				d = cfg.MeanTask / 10
			}
			if th == victim {
				d = time.Duration(float64(d) * cfg.ImbalanceFactor)
			}
			var skew time.Duration
			if cfg.Skew > 0 {
				skew = time.Duration(rng.Int63n(int64(cfg.Skew)))
			}
			starts[th] = now + skew
			ends[th] = starts[th] + d
			span.Busy[th] = d
			if ends[th] > phaseEnd {
				phaseEnd = ends[th]
			}
		}
		for th := 0; th < cfg.Threads; th++ {
			tl.Threads[th] = append(tl.Threads[th],
				Interval{Start: starts[th], End: ends[th], State: StateRunning, Step: step})
		}
		span.End = phaseEnd
		tl.PhaseSpans = append(tl.PhaseSpans, span)
		now = phaseEnd
	}
	tl.Horizon = now
	return tl
}

// Recorder builds a ground-truth timeline from real engine runs: set as
// core.Config.Telemetry, it maps each instance of one phase to a PhaseSpan
// with the engine's measured per-worker busy times. Only the coordinator
// calls PhaseEnd, so the Recorder needs no locking.
type Recorder struct {
	nopSink
	Phase core.Phase // which phase to record (typically PhaseForce)
	tl    Timeline
	now   time.Duration
}

// NewRecorder records the given phase.
func NewRecorder(ph core.Phase, workers int) *Recorder {
	r := &Recorder{Phase: ph}
	r.tl.Threads = make([][]Interval, workers)
	return r
}

// PhaseEnd implements telemetry.Sink.
func (r *Recorder) PhaseEnd(step int, phase uint8, wall time.Duration, busy []time.Duration) {
	if core.Phase(phase) != r.Phase {
		return
	}
	span := PhaseSpan{Step: step, Start: r.now, End: r.now + wall, Busy: append([]time.Duration(nil), busy...)}
	for th := range r.tl.Threads {
		b := busy[th%len(busy)]
		r.tl.Threads[th] = append(r.tl.Threads[th],
			Interval{Start: r.now, End: r.now + b, State: StateRunning, Step: step})
	}
	r.tl.PhaseSpans = append(r.tl.PhaseSpans, span)
	r.now += wall
	r.tl.Horizon = r.now
}

// Timeline returns the recorded ground truth.
func (r *Recorder) Timeline() *Timeline { return &r.tl }
