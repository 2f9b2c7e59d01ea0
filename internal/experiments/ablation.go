package experiments

import (
	"fmt"
	"time"

	"mw/internal/cells"
	"mw/internal/core"
	"mw/internal/report"
	"mw/internal/workload"
)

// AblationResult holds the design-choice ablations DESIGN.md calls out.
type AblationResult struct {
	SharedQueueSec, PerQueueSec   float64
	StealingSec                   float64
	StealCount                    int64
	SharedContended, PerContended int64
	PrivatizedSec, MutexSec       float64
	HalfFirstThird, HalfLastThird int
	Report                        string
}

// timeRun advances a fresh clone of the benchmark and returns seconds.
func timeRun(b *workload.Benchmark, cfg core.Config, steps int) (float64, *core.Simulation, error) {
	sim, err := core.New(b.Sys.Clone(), cfg)
	if err != nil {
		return 0, nil, err
	}
	start := time.Now()
	sim.Run(steps)
	return time.Since(start).Seconds(), sim, nil
}

// Ablation measures the engine design choices:
//
//   - one shared work queue vs per-worker queues (§II-B), with the queue
//     contention counters;
//   - privatized force arrays + reduction (phase 5) vs a mutex-guarded
//     shared array;
//   - the half-pair-list load shape (§II-B: lower-numbered atoms do more
//     work).
func Ablation(steps int) (*AblationResult, error) {
	if steps <= 0 {
		steps = 30
	}
	res := &AblationResult{}

	// Queue topology on salt with 4 workers.
	salt := workload.Salt()
	cfgQ := salt.Cfg
	cfgQ.Threads = 4
	cfgQ.Queues = core.SharedQueue
	secShared, simShared, err := timeRun(salt, cfgQ, steps)
	if err != nil {
		return nil, err
	}
	res.SharedQueueSec = secShared
	_, _, res.SharedContended = simShared.QueueStats()
	simShared.Close()
	cfgQ.Queues = core.PerWorkerQueues
	secPer, simPer, err := timeRun(salt, cfgQ, steps)
	if err != nil {
		return nil, err
	}
	res.PerQueueSec = secPer
	_, _, res.PerContended = simPer.QueueStats()
	simPer.Close()
	cfgQ.Queues = core.WorkStealingQueues
	cfgQ.Partition = core.PartitionBlock // stealing fixes the block imbalance
	secSteal, simSteal, err := timeRun(salt, cfgQ, steps)
	if err != nil {
		return nil, err
	}
	res.StealingSec = secSteal
	for _, st := range simSteal.Steals() {
		res.StealCount += st
	}
	simSteal.Close()

	// Reduction mode on salt with 4 workers.
	cfgR := salt.Cfg
	cfgR.Threads = 4
	cfgR.Reduce = core.ReducePrivatized
	var sim *core.Simulation
	res.PrivatizedSec, sim, err = timeRun(salt, cfgR, steps)
	if err != nil {
		return nil, err
	}
	sim.Close()
	cfgR.Reduce = core.ReduceSharedMutex
	res.MutexSec, sim, err = timeRun(salt, cfgR, steps)
	if err != nil {
		return nil, err
	}
	sim.Close()

	// Half-list load shape.
	al := workload.Al1000()
	nl := cells.NewNeighborList(al.Cfg.LJCutoff, al.Cfg.Skin)
	nl.Build(al.Sys)
	third := al.Sys.N() / 3
	for i := 0; i < third; i++ {
		res.HalfFirstThird += len(nl.Of(i))
	}
	for i := al.Sys.N() - third; i < al.Sys.N(); i++ {
		res.HalfLastThird += len(nl.Of(i))
	}

	t := report.NewTable("Design ablations (wall time, this host)",
		"Ablation", "Variant A", "Variant B", "Notes")
	t.AddRow("queue topology (salt, 4 workers)",
		fmt.Sprintf("shared %.3fs (contended %d)", res.SharedQueueSec, res.SharedContended),
		fmt.Sprintf("per-worker %.3fs (contended %d)", res.PerQueueSec, res.PerContended),
		"shared queue contends; private queues can idle (§II-B)")
	t.AddRow("work stealing (salt, 4 workers, block owners)",
		fmt.Sprintf("stealing %.3fs", res.StealingSec),
		fmt.Sprintf("steals %d", res.StealCount),
		"per-worker deques + idle-worker stealing (ForkJoinPool-style)")
	t.AddRow("force accumulation (salt, 4 workers)",
		fmt.Sprintf("privatized %.3fs", res.PrivatizedSec),
		fmt.Sprintf("shared+mutex %.3fs", res.MutexSec),
		"privatized arrays + reduction (phase 5)")
	t.AddRow("half-list load shape (Al-1000 pairs)",
		fmt.Sprintf("first third: %d", res.HalfFirstThird),
		fmt.Sprintf("last third: %d", res.HalfLastThird),
		"lower-numbered atoms own more pairs (§II-B)")
	res.Report = t.String()
	return res, nil
}
