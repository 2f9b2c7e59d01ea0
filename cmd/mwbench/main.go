// Command mwbench regenerates every table and figure of the paper's
// evaluation, plus the extension and ablation experiments. See DESIGN.md's
// per-experiment index and EXPERIMENTS.md for paper-vs-measured results.
//
// Usage:
//
//	mwbench <experiment> [args]
//
// Experiments:
//
//	table1              Table I   benchmark characteristics
//	table2 [-verbose]   Table II  machines (+ hwloc-style trees)
//	table3              Table III pinning-topology runtimes (machine model)
//	fig1                Fig 1     modeled speedup on the Core i7 920
//	fig1-native         Fig 1     wall-clock speedup on this host
//	fig2                Fig 2     thread-to-core affinity without pinning
//	observer            §IV-A     monitor observer effect
//	observer-native     §IV-A     live telemetry layer's own observer effect
//	                              (-gate enforces the overhead budget)
//	observer-serve      §IV-A     serving layer's request-tracing observer
//	                              effect (-gate enforces the overhead budget)
//	sampling            §IV-B     sampler granularity vs ground truth
//	threadview          §IV-C     per-thread view, truth vs sampled display
//	imbalance           §IV       force-phase load balance per partition
//	packing             §V-A      heap layout vs cache miss rates
//	pollution           §V-B      temp-object heap census and pollution
//	machine <spec>      model a custom machine (topo.ParseMachine syntax)
//	scaling             engine complexity: O(N) LJ vs O(N²) Coulomb
//	pme                 extension direct O(N²) vs PME crossover
//	ablation            design-choice ablations
//	all                 run everything above in order
//
// The end-to-end benchmark with per-layer attribution is a separate
// program: go run ./benchmark (see benchmark/README.md).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"mw/internal/experiments"
)

func main() {
	if len(os.Args) < 2 {
		usage(os.Stderr)
		os.Exit(2)
	}
	if os.Args[1] == "all" {
		for _, name := range []string{
			"table1", "table2", "fig1", "fig2", "table3",
			"observer", "observer-native", "sampling", "threadview", "imbalance", "packing", "pollution",
			"scaling", "pme", "ablation",
		} {
			if code := run(os.Stdout, os.Stderr, name, nil); code != 0 {
				os.Exit(code)
			}
			fmt.Println()
		}
		return
	}
	os.Exit(run(os.Stdout, os.Stderr, os.Args[1], os.Args[2:]))
}

func run(stdout, stderr io.Writer, name string, args []string) int {
	out, err := experiment(name, args)
	switch {
	case err == errUnknown:
		fmt.Fprintf(stderr, "unknown experiment %q\n\n", name)
		usage(stderr)
		return 2
	case err == errBadFlags:
		return 2
	case err != nil:
		// Experiments that fail a gate still return their report; show it so
		// the failure is diagnosable from the build log alone.
		fmt.Fprint(stdout, out)
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprint(stdout, out)
	return 0
}

var (
	errUnknown = fmt.Errorf("unknown experiment")
	// errBadFlags: the FlagSet already printed the diagnostic and usage.
	errBadFlags = fmt.Errorf("bad flags")
)

// observerNative runs the live-telemetry observer-effect experiment; with
// -gate the overhead budget becomes a hard failure (the CI regression gate).
func observerNative(args []string) (string, error) {
	fs := flag.NewFlagSet("observer-native", flag.ContinueOnError)
	steps := fs.Int("steps", 0, "timesteps per trial (0 = default)")
	trials := fs.Int("trials", 0, "paired trials per mode (0 = default)")
	budget := fs.Float64("budget", 0, "ring-recorder overhead budget in percent (0 = 2%)")
	gate := fs.Bool("gate", false, "exit non-zero if the ring recorder breaches the budget")
	if err := fs.Parse(args); err != nil {
		return "", errBadFlags
	}
	r, err := experiments.ObserverNative(*steps, *trials, *budget)
	if err != nil {
		return "", err
	}
	if *gate {
		if err := r.Gate(); err != nil {
			return r.Report, err
		}
	}
	return r.Report, nil
}

// observerServe runs the serving-layer request-tracing observer-effect
// experiment; with -gate the overhead budget becomes a hard failure.
func observerServe(args []string) (string, error) {
	fs := flag.NewFlagSet("observer-serve", flag.ContinueOnError)
	trials := fs.Int("trials", 0, "paired trials (0 = default)")
	budget := fs.Float64("budget", 0, "request-tracing overhead budget in percent (0 = 2%)")
	gate := fs.Bool("gate", false, "exit non-zero if request tracing breaches the budget")
	if err := fs.Parse(args); err != nil {
		return "", errBadFlags
	}
	r, err := experiments.ObserverServe(*trials, *budget)
	if err != nil {
		return "", err
	}
	if *gate {
		if err := r.Gate(); err != nil {
			return r.Report, err
		}
	}
	return r.Report, nil
}

func experiment(name string, args []string) (string, error) {
	switch name {
	case "table1":
		return experiments.Table1(), nil
	case "table2":
		return experiments.Table2(len(args) > 0 && args[0] == "-verbose"), nil
	case "table3":
		r, err := experiments.Table3(0)
		if err != nil {
			return "", err
		}
		return r.Report, nil
	case "fig1":
		r, err := experiments.Fig1(0)
		if err != nil {
			return "", err
		}
		return r.Report, nil
	case "fig1-native":
		r, err := experiments.Fig1Native(0)
		if err != nil {
			return "", err
		}
		return r.Report, nil
	case "fig2":
		return experiments.Fig2().Report, nil
	case "observer":
		r, err := experiments.Observer(0, 0, 0)
		if err != nil {
			return "", err
		}
		return r.Report, nil
	case "observer-native":
		return observerNative(args)
	case "observer-serve":
		return observerServe(args)
	case "sampling":
		return experiments.Sampling(0).Report, nil
	case "threadview":
		r, err := experiments.ThreadView(0)
		if err != nil {
			return "", err
		}
		return r.Report, nil
	case "imbalance":
		r, err := experiments.Imbalance(0)
		if err != nil {
			return "", err
		}
		return r.Report, nil
	case "packing":
		r, err := experiments.Packing(0)
		if err != nil {
			return "", err
		}
		return r.Report, nil
	case "pollution":
		r, err := experiments.Pollution(0)
		if err != nil {
			return "", err
		}
		return r.Report, nil
	case "machine":
		if len(args) < 1 {
			return "", fmt.Errorf("usage: mwbench machine <spec>  (e.g. %q)", "2x8x2,l3=16M/8,ch=6")
		}
		return experiments.CustomMachine(args[0])
	case "scaling":
		r, err := experiments.Scaling(0)
		if err != nil {
			return "", err
		}
		return r.Report, nil
	case "pme":
		r, err := experiments.PME()
		if err != nil {
			return "", err
		}
		return r.Report, nil
	case "ablation":
		r, err := experiments.Ablation(0)
		if err != nil {
			return "", err
		}
		return r.Report, nil
	}
	return "", errUnknown
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage: mwbench <experiment>
experiments: table1 table2 table3 fig1 fig1-native fig2 observer
             observer-native observer-serve sampling threadview imbalance
             packing pollution scaling pme ablation all`)
}
