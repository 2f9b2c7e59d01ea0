// Command mwsim runs one of the paper's benchmark simulations (or a
// generated LJ gas) in the parallel Molecular Workbench engine and reports
// energies, temperature and the display refresh rate the parallelization
// effort targeted ("MW can now sustain refresh rates as high as 32 updates
// per second on some 1000 atom benchmarks").
//
// Usage:
//
//	mwsim -bench salt -threads 4 -ps 2
//	mwsim -bench lj-gas -n 6 -temp 120 -steps 500
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"mw/internal/core"
	"mw/internal/mml"
	"mw/internal/report"
	"mw/internal/telemetry"
	"mw/internal/tracing"
	"mw/internal/workload"
	"mw/internal/xyz"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mwsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		benchName = fs.String("bench", "salt", "benchmark: salt, nanocar, Al-1000, lj-gas")
		threads   = fs.Int("threads", 1, "worker threads")
		steps     = fs.Int("steps", 0, "timesteps to run (overrides -ps)")
		ps        = fs.Float64("ps", 1, "picoseconds to simulate")
		partition = fs.String("partition", "cyclic", "work partition: cyclic, block, guided, dynamic")
		queues    = fs.String("queues", "shared", "queue topology: shared, per-worker, stealing")
		reorder   = fs.Bool("reorder", false, "sort atoms into Morton cell order on neighbor-list rebuilds (output stays in file order)")
		cluster   = fs.Bool("cluster", false, "Verlet cluster-pair (4x4) LJ neighbor format; with -reorder the engine auto-picks the fast or packed-SIMD kernel")
		n         = fs.Int("n", 5, "lattice size for -bench lj-gas (n³ atoms)")
		temp      = fs.Float64("temp", 120, "temperature for -bench lj-gas (K)")
		every     = fs.Int("report-every", 0, "print diagnostics every k steps (0 = summary only)")
		loadPath  = fs.String("load", "", "load a model file instead of a named benchmark")
		savePath  = fs.String("save", "", "save the final state as a model file")
		thermo    = fs.String("thermostat", "none", "temperature control: none, rescale, berendsen, langevin")
		trajPath  = fs.String("traj", "", "write an XYZ trajectory (one frame per -report-every interval)")
		target    = fs.Float64("target-temp", 300, "thermostat target temperature (K)")
		teleAddr  = fs.String("telemetry-addr", "", "serve live telemetry (JSON, Prometheus, pprof) on this address, e.g. :8077 (empty = off)")
		tracePath = fs.String("trace", "", "export the run as Chrome trace JSON to this path (open in ui.perfetto.dev)")
		traceRing = fs.Int("trace-ring", 256, "step records retained by the tracer's flight ring")
		flightDir = fs.String("flight-dir", "", "dump flight-<step>.trace.json here when a step breaches the anomaly threshold")
		anomaly   = fs.Float64("anomaly-factor", 8, "anomaly threshold: step wall time vs rolling p99 multiple (<0 = off)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var b *workload.Benchmark
	switch {
	case *loadPath != "":
		m, err := mml.LoadFile(*loadPath)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		sys, cfg, err := m.System()
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		b = &workload.Benchmark{Name: m.Name, Sys: sys, Cfg: cfg}
	case *benchName == "lj-gas":
		b = workload.LJGas(*n, *temp, true)
	default:
		if b = workload.ByName(*benchName); b == nil {
			fmt.Fprintf(stderr, "unknown benchmark %q (salt, nanocar, Al-1000, lj-gas)\n", *benchName)
			return 2
		}
	}

	cfg := b.Cfg
	cfg.Threads = *threads
	cfg.Reorder = *reorder
	cfg.Cluster = *cluster
	switch *partition {
	case "cyclic":
		cfg.Partition = core.PartitionCyclic
	case "block":
		cfg.Partition = core.PartitionBlock
	case "guided":
		cfg.Partition = core.PartitionGuided
	case "dynamic":
		cfg.Partition = core.PartitionDynamic
	default:
		fmt.Fprintf(stderr, "unknown partition %q\n", *partition)
		return 2
	}
	switch *thermo {
	case "none":
	case "rescale":
		cfg.Thermostat = &core.VelocityRescale{T: *target}
	case "berendsen":
		cfg.Thermostat = &core.Berendsen{T: *target}
	case "langevin":
		cfg.Thermostat = &core.Langevin{T: *target}
	default:
		fmt.Fprintf(stderr, "unknown thermostat %q\n", *thermo)
		return 2
	}
	switch *queues {
	case "shared":
		cfg.Queues = core.SharedQueue
	case "per-worker":
		cfg.Queues = core.PerWorkerQueues
	case "stealing":
		cfg.Queues = core.WorkStealingQueues
	default:
		fmt.Fprintf(stderr, "unknown queue topology %q\n", *queues)
		return 2
	}

	// The engine always runs instrumented — the ring-buffer recorder is the
	// low-overhead monitor the observer-native experiment gates under 2%, so
	// there is no "fast path without it" worth a flag. -telemetry-addr only
	// decides whether the state is additionally served over HTTP for mwtop.
	rec := telemetry.NewRecorder(*threads, core.PhaseNames())
	cfg.Telemetry = rec
	// -trace / -flight-dir upgrade the recorder to the structured tracer: the
	// same rings underneath, plus the per-step span timeline and the
	// anomaly-triggered flight recorder. The plain recorder stays the default
	// so untraced runs keep the exact path the observer gate measures.
	var tracer *tracing.Tracer
	if *tracePath != "" || *flightDir != "" {
		tracer = tracing.New(rec, tracing.Config{
			RingSteps:     *traceRing,
			AnomalyFactor: *anomaly,
			FlightDir:     *flightDir,
			OnFlight: func(path string, step int) {
				if path != "" {
					fmt.Fprintf(stderr, "anomaly at step %d — flight dump %s\n", step, path)
				}
			},
		})
		cfg.Telemetry = tracer
	}
	if *teleAddr != "" {
		srv, addr, err := telemetry.Serve(*teleAddr, rec)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer srv.Close()
		fmt.Fprintf(stdout, "telemetry: http://%s/telemetry.json (JSON), /metrics (Prometheus), /debug/pprof/\n", addr)
	}

	sim, err := core.New(b.Sys, cfg)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer sim.Close()

	// Report and time the run with the engine's resolved config (defaults
	// applied), not the raw flags: a model with dt=0 runs at the default Dt.
	dt := sim.Cfg.Dt
	nsteps := *steps
	if nsteps <= 0 {
		nsteps = int(*ps * 1000 / dt)
	}
	ch := workload.Characterize(b.Name, b.Sys)
	fmt.Fprintf(stdout, "%s: %d atoms (%d charged, %d bond terms), dt=%g fs, %d threads, %s/%s\n",
		ch.Name, ch.Atoms, ch.ChargedAtoms, ch.BondTerms, dt, sim.Cfg.Threads,
		sim.Cfg.Partition, sim.Cfg.Queues)
	fmt.Fprintf(stdout, "initial: PE=%.3f eV  KE=%.3f eV  T=%.1f K\n",
		sim.PE(), sim.Sys.KineticEnergy(), sim.Sys.Temperature())

	var traj *xyz.Writer
	if *trajPath != "" {
		f, err := os.Create(*trajPath)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer f.Close()
		traj = xyz.NewWriter(f)
		// Trajectory frames and saved models are always in file (original)
		// atom order, even when -reorder has permuted the live arrays.
		if err := traj.WriteFrame(sim.SystemInOriginalOrder(), "t=0"); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}

	start := time.Now()
	if *every > 0 {
		for done := 0; done < nsteps; {
			k := *every
			if done+k > nsteps {
				k = nsteps - done
			}
			sim.Run(k)
			done += k
			fmt.Fprintf(stdout, "step %6d  t=%7.2f ps  E=%12.4f eV  T=%7.1f K  rebuilds=%d\n",
				done, float64(done)*dt/1000, sim.TotalEnergy(), sim.Sys.Temperature(), sim.Rebuilds())
			if traj != nil {
				if err := traj.WriteFrame(sim.SystemInOriginalOrder(), fmt.Sprintf("t=%g fs", float64(done)*dt)); err != nil {
					fmt.Fprintln(stderr, err)
					return 1
				}
			}
		}
	} else {
		sim.Run(nsteps)
		if traj != nil {
			if err := traj.WriteFrame(sim.SystemInOriginalOrder(), "final"); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
		}
	}
	wall := time.Since(start)

	fmt.Fprintf(stdout, "final:   PE=%.3f eV  KE=%.3f eV  T=%.1f K\n",
		sim.PE(), sim.Sys.KineticEnergy(), sim.Sys.Temperature())
	fmt.Fprintf(stdout, "simulated %.2f ps in %v — %.1f updates/s (refresh rate)\n",
		float64(nsteps)*dt/1000, wall.Round(time.Millisecond),
		float64(nsteps)/wall.Seconds())

	snap := rec.Snapshot(0)
	t := report.NewTable("Per-phase wall time", "Phase", "Total (ms)", "Mean/step (µs)", "p50 (µs)", "p99 (µs)")
	for ph := core.PhasePredictor; ph < core.NumPhases; ph++ {
		total := sim.PhaseWall[ph].Sum()
		t.AddRow(ph.String(), total*1e3, total/float64(nsteps)*1e6,
			snap.Phases[ph].P50Micros, snap.Phases[ph].P99Micros)
	}
	fmt.Fprint(stdout, t.String())

	if tracer != nil && *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := tracer.Export(f); err != nil {
			f.Close()
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote trace timeline to %s (%d retained steps) — open in ui.perfetto.dev\n",
			*tracePath, len(tracer.Records()))
	}
	if tracer != nil {
		if anomalies := tracer.Anomalies(); anomalies > 0 {
			dumps, last := tracer.FlightDumps()
			fmt.Fprintf(stdout, "anomalous steps: %d (flight dumps: %d, last %s)\n", anomalies, dumps, last)
		}
	}

	if *savePath != "" {
		if err := mml.SaveFile(*savePath, mml.FromSystem(b.Name, sim.SystemInOriginalOrder(), cfg)); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "saved model to %s\n", *savePath)
	}
	return 0
}
