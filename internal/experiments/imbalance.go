package experiments

import (
	"fmt"

	"mw/internal/cells"
	"mw/internal/core"
	"mw/internal/perfmon"
	"mw/internal/report"
	"mw/internal/stats"
	"mw/internal/workload"
)

// ImbalanceRow summarizes the force-phase load balance of one engine
// configuration.
type ImbalanceRow struct {
	Benchmark string
	Partition core.Partition
	// MeanStepImbalance is the average of per-step imbalance factors.
	MeanStepImbalance float64
	// MaxStepImbalance is the worst single step.
	MaxStepImbalance float64
	// TotalImbalance is the imbalance of the per-worker TOTALS — the
	// misleading aggregate the paper warns about: "Imbalance on any
	// particular iteration can disappear when averaged over many
	// iterations."
	TotalImbalance float64
	// BarrierWaste is the mean fraction of worker time lost at barriers.
	BarrierWaste float64
}

// ImbalanceResult holds the §IV load-balance analysis on real engine runs.
type ImbalanceResult struct {
	Rows   []ImbalanceRow
	Report string
}

// measureImbalance runs a benchmark with the given partition strategy and
// derives the per-step force-phase imbalance from the engine's
// ground-truth instrumentation.
func measureImbalance(b *workload.Benchmark, p core.Partition, steps int) (ImbalanceRow, error) {
	const threads = 4
	rec := perfmon.NewRecorder(core.PhaseForce, threads)
	cfg := b.Cfg
	cfg.Threads = threads
	cfg.Partition = p
	cfg.Telemetry = rec
	sim, err := core.New(b.Sys.Clone(), cfg)
	if err != nil {
		return ImbalanceRow{}, err
	}
	defer sim.Close()
	sim.Run(steps)

	tl := rec.Timeline()
	row := ImbalanceRow{Benchmark: b.Name, Partition: p}
	totals := make([]float64, threads)
	var perStep, waste stats.Running
	for _, span := range tl.PhaseSpans {
		loads := make([]float64, len(span.Busy))
		for w, d := range span.Busy {
			loads[w] = d.Seconds()
			totals[w] += d.Seconds()
		}
		imb := stats.Imbalance(loads)
		perStep.Add(imb)
		waste.Add(stats.BarrierWaste(loads))
		if imb > row.MaxStepImbalance {
			row.MaxStepImbalance = imb
		}
	}
	row.MeanStepImbalance = perStep.Mean()
	row.TotalImbalance = stats.Imbalance(totals)
	row.BarrierWaste = waste.Mean()
	return row, nil
}

// Imbalance runs the §IV load-balance analysis: salt (triangular Coulomb
// load) and Al-1000 (neighbor-count variability) under every partition
// strategy.
func Imbalance(steps int) (*ImbalanceResult, error) {
	if steps <= 0 {
		steps = 25
	}
	res := &ImbalanceResult{}
	t := report.NewTable("Load imbalance of the force phase (§IV), 4 workers",
		"Benchmark", "Partition", "Mean step imbalance", "Max step", "Imbalance of totals", "Barrier waste")
	for _, mk := range []func() *workload.Benchmark{workload.Salt, workload.Al1000} {
		for _, p := range []core.Partition{
			core.PartitionBlock, core.PartitionCyclic, core.PartitionGuided, core.PartitionDynamic,
		} {
			b := mk()
			row, err := measureImbalance(b, p, steps)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, row)
			t.AddRow(row.Benchmark, row.Partition.String(),
				row.MeanStepImbalance, row.MaxStepImbalance,
				row.TotalImbalance, row.BarrierWaste)
		}
	}
	res.Report = t.String() + "\n" + staticWorkTable() + fmt.Sprintf(
		"\npaper: block partitioning of half pair lists front-loads work onto the\nworkers owning low-numbered atoms (§II-B); per-step imbalance can be much\nlarger than the imbalance of long-run totals (§IV).\nNote: the guided/dynamic rows measure wall time on this single-CPU host,\nwhere a self-scheduling worker drains the shared counter before the others\nare ever scheduled — their time-based rows are degenerate here; the static\nwork-distribution table below is host-independent.\n")
	return res, nil
}

// staticRow is one row of the host-independent work distribution: the
// pairs each of 4 workers owns under one partitioning of one benchmark.
type staticRow struct {
	name  string
	pairs int
	part  core.Partition
	loads []float64
}

func staticWorkTable() string {
	t := report.NewTable("Static work distribution (pairs owned per worker, host-independent)",
		"Benchmark", "Pairs", "Partition", "w0", "w1", "w2", "w3", "Imbalance")
	for _, r := range staticWorkRows() {
		t.AddRow(r.name, r.pairs, r.part.String(),
			int(r.loads[0]), int(r.loads[1]), int(r.loads[2]), int(r.loads[3]),
			stats.Imbalance(r.loads))
	}
	return t.String()
}

// staticWorkRows computes the host-independent work distribution: how many
// pairs each of 4 workers owns under block vs cyclic partitioning.
func staticWorkRows() []staticRow {
	const threads = 4
	const chunk = 64
	var rows []staticRow
	add := func(name string, perChunk []int, totalPairs int) {
		nchunks := len(perChunk)
		for _, part := range []core.Partition{core.PartitionBlock, core.PartitionCyclic} {
			loads := make([]float64, threads)
			for c, pairs := range perChunk {
				var w int
				if part == core.PartitionBlock {
					w = c * threads / nchunks
					if w >= threads {
						w = threads - 1
					}
				} else {
					w = c % threads
				}
				loads[w] += float64(pairs)
			}
			rows = append(rows, staticRow{name, totalPairs, part, loads})
		}
	}

	// salt: triangular Coulomb pair counts per chunk of the charged list.
	salt := workload.Salt()
	nCharged := salt.Sys.NumCharged()
	ccs := chunk/2 + 1
	var saltChunks []int
	totalSalt := 0
	for lo := 0; lo < nCharged; lo += ccs {
		hi := lo + ccs
		if hi > nCharged {
			hi = nCharged
		}
		pairs := 0
		for ci := lo; ci < hi; ci++ {
			pairs += nCharged - ci - 1
		}
		saltChunks = append(saltChunks, pairs)
		totalSalt += pairs
	}
	add("salt (Coulomb)", saltChunks, totalSalt)

	// Al-1000: half-list LJ pair counts per atom chunk.
	al := workload.Al1000()
	nl := cells.NewNeighborList(al.Cfg.LJCutoff, al.Cfg.Skin)
	nl.Build(al.Sys)
	var alChunks []int
	totalAl := 0
	for lo := 0; lo < al.Sys.N(); lo += chunk {
		hi := lo + chunk
		if hi > al.Sys.N() {
			hi = al.Sys.N()
		}
		pairs := 0
		for i := lo; i < hi; i++ {
			pairs += len(nl.Of(i))
		}
		alChunks = append(alChunks, pairs)
		totalAl += pairs
	}
	add("Al-1000 (LJ)", alChunks, totalAl)
	return rows
}
