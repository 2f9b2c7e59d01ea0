package experiments

import (
	"fmt"
	"strings"
	"time"

	"mw/internal/core"
	"mw/internal/perfmon"
	"mw/internal/workload"
)

// ThreadViewResult holds the §IV-C demonstration: the per-thread display
// the paper wished for, rendered from engine ground truth, next to what a
// coarse sample-and-hold tool shows for the same run.
type ThreadViewResult struct {
	Timeline *perfmon.Timeline
	Report   string
}

// ThreadView records the force phase of a short 4-worker salt run and
// renders (a) the ground-truth per-thread view — "a simple way to see what
// method a thread was executing at a given moment for all threads" — and
// (b) the same run as displayed by a VisualVM-style sampler, showing the
// stale-state distortion of §IV-B.
func ThreadView(steps int) (*ThreadViewResult, error) {
	if steps <= 0 {
		steps = 40
	}
	const threads = 4
	b := workload.Salt()
	rec := perfmon.NewRecorder(core.PhaseForce, threads)
	cfg := b.Cfg
	cfg.Threads = threads
	cfg.Partition = core.PartitionBlock // the paper's 1/N split: visible imbalance
	cfg.Telemetry = rec
	sim, err := core.New(b.Sys, cfg)
	if err != nil {
		return nil, err
	}
	defer sim.Close()
	sim.Run(steps)

	tl := rec.Timeline()
	var sb strings.Builder
	fmt.Fprintf(&sb, "== Per-thread force-phase view (§IV-C), salt, block partition, %d steps ==\n", steps)
	sb.WriteString("ground truth ('#' busy, '+' partly, '.' waiting at barrier):\n")
	sb.WriteString(perfmon.ThreadView(tl, 72))
	period := tl.Horizon / 6
	fmt.Fprintf(&sb, "\nas displayed by a sample-and-hold tool (period %v ≈ horizon/6):\n", period.Round(time.Microsecond))
	sb.WriteString(perfmon.SampledThreadView(tl, 72, period))
	sb.WriteString("\nThe triangular Coulomb load shows worker 0 busy long after the others\nhit the barrier; the sampled display smears or misses those tails\n(paper: tools \"lack sufficiently fine granularity to expose small\nimbalances\").\n")
	return &ThreadViewResult{Timeline: tl, Report: sb.String()}, nil
}
