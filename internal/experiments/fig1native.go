package experiments

import (
	"fmt"
	"runtime"
	"time"

	"mw/internal/core"
	"mw/internal/report"
	"mw/internal/workload"
)

// Fig1Native measures REAL wall-clock engine speedup for the three
// benchmarks at 1..4 worker threads. On a host with four or more physical
// cores this is the direct analogue of the paper's Fig 1 (now for the Go
// engine with SoA data rather than the Java engine); on a host with fewer
// CPUs, speedup is capped near NumCPU and the thread counts above it are
// oversubscribed, which is why the modeled Fig1 exists.
func Fig1Native(steps int) (*Fig1Result, error) {
	if steps <= 0 {
		steps = 40
	}
	res := &Fig1Result{
		Cores:   []int{1, 2, 3, 4},
		Speedup: map[string][]float64{},
		Order:   []string{"salt", "nanocar", "Al-1000"},
	}
	for _, name := range res.Order {
		var base float64
		for _, threads := range res.Cores {
			b := workload.ByName(name)
			cfg := b.Cfg
			cfg.Threads = threads
			sim, err := core.New(b.Sys, cfg)
			if err != nil {
				return nil, err
			}
			sim.Run(3) // warm caches and neighbor lists
			start := time.Now()
			sim.Run(steps)
			wall := time.Since(start).Seconds()
			sim.Close()
			if threads == 1 {
				base = wall
			}
			res.Speedup[name] = append(res.Speedup[name], base/wall)
		}
	}
	xs := make([]float64, len(res.Cores))
	for i, c := range res.Cores {
		xs[i] = float64(c)
	}
	s := report.NewSeries(
		fmt.Sprintf("Fig 1 (native): wall-clock engine speedup on this host (GOMAXPROCS=%d, NumCPU=%d)",
			runtime.GOMAXPROCS(0), runtime.NumCPU()),
		"threads", xs)
	for _, name := range res.Order {
		s.Add(name, res.Speedup[name])
	}
	res.Report = s.String()
	if n := runtime.NumCPU(); n < 4 {
		res.Report += fmt.Sprintf(
			"\nNOTE: this host exposes %d CPU(s); wall-clock speedup cannot exceed ~%d× here,\nand thread counts above %d are oversubscribed.\nThe modeled run (`mwbench fig1`) reproduces the paper's multicore shape.\n",
			n, n, n)
	}
	return res, nil
}
