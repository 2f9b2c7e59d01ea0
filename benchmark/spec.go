package main

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sort"
)

// defaultSeed is used when -seed is not given. (BENCHMARK.json's schema has
// no place for it, so it is recorded here and in README.md.)
const defaultSeed = 20100913

// runSeconds mirrors BENCHMARK.json's run_seconds: the length the workload
// sizes below were chosen for.
const runSeconds = 10

type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only
}

// endToEnd is what a user of the system sees, measured with tracing off.
// Every workload reports every one of them; an "op" is one Step() for the
// engine workloads and one HTTP request for the served ones (README.md says
// which requests on which workload).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
	{"op_tail_us", "us", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// perLayer is what the traced run reports. A value of 0 means the layer
// does no work on that workload (no charges, no bonds, no daemon, …).
var perLayer = []metricDef{
	{"core.step_plain_us", "us", "lower", 0},
	{"core.step_rebuild_us", "us", "lower", 0},
	{"core.rebuild_every_steps", "count", "higher", 0},
	{"core.rebuild_share_pct", "%", "lower", 0},
	{"core.phase_predictor_us", "us", "lower", 0},
	{"core.phase_neighbor_check_us", "us", "lower", 0},
	{"core.phase_force_us", "us", "lower", 0},
	{"core.phase_reduce_us", "us", "lower", 0},
	{"core.phase_corrector_us", "us", "lower", 0},
	{"core.phase_residual_pct", "%", "lower", 0},
	{"core.allocs_per_step", "count", "lower", 0},
	{"core.bytes_per_step", "B", "lower", 0},
	{"core.new_ms", "ms", "lower", 0},
	{"core.steps_per_s_t1", "1/s", "higher", 0},
	{"core.parallel_efficiency", "ratio", "higher", 0},
	{"core.worker_imbalance", "ratio", "lower", 0},
	{"core.barrier_wait_pct", "%", "lower", 0},
	{"core.queue_contended_per_step", "count", "lower", 0},
	{"core.replay_residual_pct", "%", "lower", 0},
	{"cells.assign_us", "us", "lower", 0},
	{"cells.build_range_us", "us", "lower", 0},
	{"cells.build_cluster_us", "us", "lower", 0},
	{"cells.build_cluster_ns_per_pair", "ns", "lower", 0},
	{"cells.max_disp_us", "us", "lower", 0},
	{"cells.pack_us", "us", "lower", 0},
	{"cells.half_pairs", "count", "lower", 0},
	{"cells.cluster_entries", "count", "lower", 0},
	{"cells.cluster_lane_fill", "ratio", "higher", 0},
	{"atom.reorder_us", "us", "lower", 0},
	{"forces.lj_ref_ns_per_pair", "ns", "lower", 0},
	{"forces.lj_fast_ns_per_pair", "ns", "lower", 0},
	{"forces.lj_simd_ns_per_pair", "ns", "lower", 0},
	{"forces.coulomb_ns_per_pair", "ns", "lower", 0},
	{"forces.bonded_us", "us", "lower", 0},
	{"forces.bonded_ns_per_term", "ns", "lower", 0},
	{"pool.phase_dispatch_us", "us", "lower", 0},
	{"mml.load_ms", "ms", "lower", 0},
	{"mml.model_kb", "kB", "lower", 0},
	{"serve.compute_p50_us", "us", "lower", 0},
	{"serve.compute_p99_us", "us", "lower", 0},
	{"serve.queue_wait_p50_us", "us", "lower", 0},
	{"serve.queue_wait_p99_us", "us", "lower", 0},
	{"serve.batch_wait_p50_us", "us", "lower", 0},
	{"serve.batch_wait_p99_us", "us", "lower", 0},
	{"serve.overhead_p50_us", "us", "lower", 0},
	{"serve.client_write_us", "us", "lower", 0},
	{"serve.client_read_us", "us", "lower", 0},
	{"serve.slo_rate_rps", "1/s", "higher", 0},
	{"serve.lat_p99_ms_r800", "ms", "lower", 0},
	{"serve.lat_p99_ms_r1000", "ms", "lower", 0},
	{"serve.lat_p99_ms_r1200", "ms", "lower", 0},
	{"serve.lat_p99_ms_r1400", "ms", "lower", 0},
	{"serve.gen_late_p99_us", "us", "lower", 0},
	{"serve.mean_batch_size", "ratio", "lower", 0},
	{"serve.shed_429", "count", "lower", 0},
	{"serve.stepper_req_per_s", "1/s", "higher", 0},
	{"serve.create_p50_ms", "ms", "lower", 0},
	{"serve.step10_p50_ms", "ms", "lower", 0},
	{"serve.snapshot_p50_ms", "ms", "lower", 0},
	{"serve.close_p50_ms", "ms", "lower", 0},
	{"serve.snapshot_kb", "kB", "lower", 0},
	{"serve.rss_per_session_kb", "kB", "lower", 0},
	{"bench.trace_overhead_pct", "%", "lower", 0},
}

// workloadDef names one workload; Why is the one line BENCHMARK.json
// carries, README.md has the longer argument.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(o options, m *metrics, tr *tracer) (*outcome, error)
}

var workloads = []workloadDef{
	{"al1000", "LJ slab hit by a projectile: list-write-heavy (rebuild every ~13 steps), so cells build, atom reorder and the SIMD kernel each carry a large share; Coulomb and bonded do nothing", runAl1000},
	{"salt", "800 ions: all-pairs Coulomb is over 95% of the step; the control on which kernel, list and pool work must move nothing", runSalt},
	{"nanocar", "bonded terms and exclusion masks built into the cluster list, half the atoms fixed; guards the exclusion path", runNanocar},
	{"ljliquid8k", "8 000 periodic Ar at Threads=min(nproc,4): list-read-heavy, working set beyond L2, no AVX2 rung; the only workload where pool, partitioning and reduce do real work", runLJLiquid},
	{"serve-step", "real mwserved, 64 staggered Al-1000 tenants uploaded as MML, default bitwise kernel path, cache-cold: closed loop for capacity, open loop at 800 req/s timed from the intended send for latency", runServeStep},
	{"serve-churn", "same daemon with 64 residents: one connection loops create-step-snapshot-close of uploaded nanocar models while another steps the residents; writes beside reads in the serve layer", runServeChurn},
}

// benchmarkJSON renders the declaration the driver reads, BENCHMARK.json,
// from the tables above; a test holds the committed file to it.
func benchmarkJSON() []byte {
	type layerJSON struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	type endJSON struct {
		layerJSON
		Bound float64 `json:"bound"`
	}
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []endJSON     `json:"end_to_end"`
		PerLayer   []layerJSON   `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, endJSON{layerJSON{d.Name, d.Unit, d.Better}, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layerJSON{d.Name, d.Unit, d.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic("benchmark: the declaration does not encode: " + err.Error())
	}
	return out
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// engineThreads is P, the worker count of the one parallel workload.
func engineThreads() int { return min(runtime.NumCPU(), 4) }

// loadConns is the number of keep-alive connections the load generator uses.
func loadConns() int { return min(runtime.NumCPU(), 2) }

// metrics collects one run's values by declared name. Setting an undeclared
// name is a bug in the benchmark and panics.
type metrics struct{ values map[string]float64 }

func newMetrics() *metrics { return &metrics{values: map[string]float64{}} }

func declared(name string) bool {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return true
			}
		}
	}
	return false
}

func (m *metrics) set(name string, v float64) {
	if !declared(name) {
		panic(fmt.Sprintf("benchmark: metric %q is not declared", name))
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m.values[name] = v
}

// missing lists the metrics of defs that were never set.
func (m *metrics) missing(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		if _, ok := m.values[d.Name]; !ok {
			out = append(out, d.Name)
		}
	}
	sort.Strings(out)
	return out
}

// export renders the values of defs in the result line's shape. Per-layer
// metrics a workload does not exercise read 0.
func (m *metrics) export(defs []metricDef) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: m.values[d.Name], Unit: d.Unit}
	}
	return out
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a single-workload run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// outcome is what a workload hands back besides its metrics.
type outcome struct {
	attempted, failed int64
	checks            []check  // every correctness check made, passed or not
	unresolved        []string // reasons the numbers should not be compared
	samples           map[string]int
}

type check struct {
	name   string
	ok     bool
	detail string
}

func (o *outcome) check(name string, ok bool, format string, args ...any) {
	o.checks = append(o.checks, check{name, ok, fmt.Sprintf(format, args...)})
}

func (o *outcome) correct() bool {
	for _, c := range o.checks {
		if !c.ok {
			return false
		}
	}
	return true
}
