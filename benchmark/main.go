// Command benchmark measures the engine and the daemon end to end and layer
// by layer, as README.md in this directory describes and BENCHMARK.json at
// the root of the repository declares.
//
//	go run ./benchmark --workload W --seed N --seconds S --trace 0|1   one run, result on the last line
//	go run ./benchmark [-seed N] [-trace 1] [-smoke]                   every workload, one child process each
//	go run ./benchmark -aa                                             the untraced set twice, A B B A
//	go run ./benchmark -spec > BENCHMARK.json                          the declaration, from spec.go
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	aa       bool
	log      io.Writer // where a run narrates what it does (standard output)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{log: stdout}
	var trace int
	fs.StringVar(&o.workload, "workload", "", "run this one workload in this process (default: all, one child each)")
	fs.Int64Var(&o.seed, "seed", defaultSeed, "seed of all generated inputs")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "length a run measures for")
	fs.IntVar(&trace, "trace", 0, "1: the traced run that reports the per-layer metrics")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny sizes, about a second per workload: checks on, numbers meaningless")
	fs.BoolVar(&o.aa, "aa", false, "run the untraced set twice (A B B A) and hold the difference to each bound")
	spec := fs.Bool("spec", false, "print BENCHMARK.json as this program declares it, and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || trace < 0 || trace > 1 || o.seconds <= 0 {
		fmt.Fprintln(stderr, "benchmark: usage: [--workload W] [--seed N] [--seconds S] [--trace 0|1] [-smoke] [-aa]")
		return 2
	}
	if *spec {
		fmt.Fprintf(stdout, "%s\n", benchmarkJSON())
		return 0
	}
	o.trace = trace == 1
	if o.smoke {
		o.seconds = min(o.seconds, 0.3)
	}
	switch {
	case o.workload != "":
		return runOne(o, stdout, stderr)
	case o.aa:
		return runAA(o, stdout, stderr)
	default:
		return runAll(o, stdout, stderr)
	}
}

// runOne runs one workload in this process and prints its result as the
// last line of standard output.
func runOne(o options, stdout, stderr io.Writer) int {
	w := findWorkload(o.workload)
	if w == nil {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", o.workload)
		return 2
	}
	env := currentEnvironment(o)
	m := newMetrics()
	var tr *tracer
	defs := endToEnd
	if o.trace {
		tr, defs = newTracer(), perLayer
	}
	out, err := w.run(o, m, tr)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.Name, err)
		return 1
	}
	// The workload that ran just before this one (all-workloads and -aa
	// modes) is still in the one-minute average, for up to nproc; anything
	// beyond that is somebody else.
	if busy := float64(env.NProc) + 1; env.LoadAvg1 > busy {
		out.unresolved = append(out.unresolved,
			fmt.Sprintf("load average %.2f above nproc+1 = %.0f at start", env.LoadAvg1, busy))
	}
	if missing := m.missing(endToEnd); !o.trace && len(missing) > 0 {
		fmt.Fprintf(stderr, "benchmark: %s: metrics never measured: %v\n", w.Name, missing)
		return 1
	}
	values := m.export(defs)
	printTable(stdout, w.Name, defs, values, out)
	if o.trace {
		root, err := repoRoot()
		if err == nil {
			var path string
			path, err = tr.write(filepath.Join(root, "benchmark", "out"), w.Name, env, values)
			fmt.Fprintf(stdout, "# %d spans written to %s\n", len(tr.spans), path)
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: writing the trace: %v\n", w.Name, err)
			return 1
		}
	}
	info, _ := json.Marshal(runInfo{env, out.unresolved}) // plain data: cannot fail
	fmt.Fprintf(stdout, "info %s\n", info)
	res := result{
		Correct:   out.correct(),
		Attempted: max(out.attempted, 1),
		Failed:    out.failed,
		Metrics:   values,
	}
	line, _ := json.Marshal(res) // plain data: cannot fail
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// runInfo is the "info" line a run prints just above its result: the
// environment every output records, and why (if so) the numbers of this run
// should not be compared.
type runInfo struct {
	Env        environment `json:"env"`
	Unresolved []string    `json:"unresolved"`
}

func printTable(w io.Writer, workload string, defs []metricDef, values map[string]metricValue, out *outcome) {
	for _, c := range out.checks {
		verdict := "ok  "
		if !c.ok {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "# check %s %s: %s\n", verdict, c.name, c.detail)
	}
	for _, d := range defs {
		v := values[d.Name]
		n := ""
		if c, ok := out.samples[d.Name]; ok {
			n = fmt.Sprintf("  (n=%d)", c)
		}
		fmt.Fprintf(w, "%-12s %-34s %14.4f %-5s%s\n", workload, d.Name, v.Value, v.Unit, n)
	}
	failedRatio := float64(out.failed) / float64(max(out.attempted, 1))
	fmt.Fprintf(w, "%-12s %-34s %14.6f %-5s  (%d of %d)\n", workload, "failed_ratio", failedRatio, "ratio", out.failed, out.attempted)
	for _, u := range out.unresolved {
		fmt.Fprintf(w, "# unresolved: %s\n", u)
	}
}

// childRun is one workload's run in a child process, parsed back.
type childRun struct {
	result
	info runInfo
}

// runChild re-executes this binary for one workload, so that every workload
// starts on a fresh heap and has a peak RSS of its own.
func runChild(o options, name string, echo io.Writer) (*childRun, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	args := []string{"--workload", name, "--seed", fmt.Sprint(o.seed), "--seconds", fmt.Sprint(o.seconds), "--trace", trace}
	if o.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(self, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	var cr childRun
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "info "); ok {
			if err := json.Unmarshal([]byte(rest), &cr.info); err != nil {
				return nil, fmt.Errorf("%s: info line: %w", name, err)
			}
			continue
		}
		if last != "" {
			fmt.Fprintln(echo, last)
		}
		last = line
	}
	if err := json.Unmarshal([]byte(last), &cr.result); err != nil {
		return nil, fmt.Errorf("%s: no result line (%v): %w", name, runErr, err)
	}
	if runErr != nil && cr.Correct {
		return nil, fmt.Errorf("%s: %w", name, runErr)
	}
	return &cr, nil
}

// runAll runs every workload once, one child process at a time, and prints
// every metric by name. It fails if any check or any operation failed.
func runAll(o options, stdout, stderr io.Writer) int {
	fmt.Fprintf(stdout, "# benchmark: seed %d, %g s per run, trace=%v, nproc %d, %s\n",
		o.seed, o.seconds, o.trace, runtime.NumCPU(), runtime.Version())
	status := 0
	for _, w := range workloads {
		cr, err := runChild(o, w.Name, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		if !cr.Correct || cr.Failed > 0 {
			fmt.Fprintf(stdout, "# %s: FAILED (correct=%v, %d of %d operations failed)\n", w.Name, cr.Correct, cr.Failed, cr.Attempted)
			status = 1
		}
	}
	return status
}

// runAA runs the untraced set twice from this one binary, in A B B A
// workload order, and holds every end-to-end metric's difference to its
// bound. A breach, a failed check, or a run marked unresolved fails it.
func runAA(o options, stdout, stderr io.Writer) int {
	o.trace = false
	order := make([]string, 0, 2*len(workloads))
	for _, w := range workloads {
		order = append(order, w.Name)
	}
	for i := len(workloads) - 1; i >= 0; i-- {
		order = append(order, workloads[i].Name)
	}
	runs := map[string][]*childRun{}
	status := 0
	for _, name := range order {
		cr, err := runChild(o, name, io.Discard)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "# ran %s (%d ops, %d failed)\n", name, cr.Attempted, cr.Failed)
		if !cr.Correct || cr.Failed > 0 {
			fmt.Fprintf(stdout, "%-12s FAILED: correct=%v, %d of %d operations failed\n", name, cr.Correct, cr.Failed, cr.Attempted)
			status = 1
		}
		for _, u := range cr.info.Unresolved {
			fmt.Fprintf(stdout, "%-12s UNRESOLVED: %s\n", name, u)
			status = 1
		}
		runs[name] = append(runs[name], cr)
	}
	fmt.Fprintf(stdout, "%-12s %-12s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "worse by", "bound")
	for _, w := range workloads {
		name := w.Name
		a, b := runs[name][0], runs[name][1]
		for _, d := range endToEnd {
			// Either order may be the worse one: A/A has no "before".
			va, vb := a.Metrics[d.Name].Value, b.Metrics[d.Name].Value
			diff := max(worseBy(va, vb, d.Better), worseBy(vb, va, d.Better))
			verdict := ""
			if diff > d.Bound {
				verdict = "  BREACH"
				status = 1
			}
			fmt.Fprintf(stdout, "%-12s %-12s %14.4f %14.4f %8.2f%% %6.0f%%%s\n", name, d.Name, va, vb, 100*diff, 100*d.Bound, verdict)
		}
	}
	return status
}
