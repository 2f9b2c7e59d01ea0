package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestPercentileIsNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{5, 15}, {20, 15}, {21, 20}, {40, 20}, {50, 35}, {99, 50}, {100, 50},
	} {
		if got := percentile(append([]float64(nil), xs...), c.p); got != c.want {
			t.Errorf("p%v of %v = %v, want %v", c.p, xs, got, c.want)
		}
	}
	// 1..100: the p-th percentile is the p-th sample, never an interpolation.
	var hundred []float64
	for i := 100; i >= 1; i-- {
		hundred = append(hundred, float64(i))
	}
	if got := percentile(hundred, 99); got != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %v, want 0", got)
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},        // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},       // reaches past the parent
		{ID: 5, Parent: 2, Name: "a1", Start: 10, End: 25},       // nested: shortens a, not root
		{ID: 6, Parent: 2, Name: "a2", Start: 20, End: 40},       // overlaps a1
		{ID: 7, Parent: 1, Name: "inside-b", Start: 35, End: 50}, // wholly covered already
	}
	self := selfTimes(spans)
	for id, want := range map[int32]int64{
		1: 100 - (50 + 10), // [10,60) and [90,100)
		2: 0,               // [10,40) covered by a1 ∪ a2
		3: 30,
		4: 30,
		5: 15,
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestRebuildStepClassification(t *testing.T) {
	if stepTag(4, 4) != "" || stepTag(4, 5) != "rebuild" {
		t.Fatalf("stepTag: a step is a rebuild step exactly when the engine's counter moved")
	}
	// 13 plain steps of 100 us and one rebuild step of 1400 us: the rebuild
	// costs 1300 us above a plain step, of 2700 us in all.
	plain := make([]float64, 13)
	for i := range plain {
		plain[i] = 100
	}
	p, r, share := rebuildBreakdown(plain, []float64{1400})
	if p != 100 || r != 1400 || math.Abs(share-100*1300.0/2700) > 1e-9 {
		t.Errorf("rebuildBreakdown = %v, %v, %v", p, r, share)
	}
	if _, _, share := rebuildBreakdown(plain, nil); share != 0 {
		t.Errorf("no rebuild steps must give a share of 0, got %v", share)
	}
}

// TestOpenLoopChargesAStallToTheRequestsBehindIt drives the real request
// path against a stub that stalls once for 50 ms. The requests due during
// the stall are served in well under a millisecond each once it ends, but
// their latency, counted from when they were due, must carry the wait: a
// generator that timed from the actual send would report them as fast
// (coordinated omission).
func TestOpenLoopChargesAStallToTheRequestsBehindIt(t *testing.T) {
	const stallAt, stall = 10, 50 * time.Millisecond
	var answered atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if answered.Add(1) == stallAt+1 {
			time.Sleep(stall)
		}
		fmt.Fprint(w, `{"step":1,"pe":-1.5,"wall_us":10,"compute_us":8}`)
	}))
	defer ts.Close()
	sv := &served{conns: []*conn{newConn(ts.URL)}, fleet: &fleet{ids: []string{"a"}, steps: make([]atomic.Int64, 1)}}
	defer sv.conns[0].close()

	const rate = 200 // one request every 5 ms, 0.3 s in all
	samples := sv.offer(rate, 300*time.Millisecond, false)
	if len(samples) != 60 {
		t.Fatalf("offered %d requests, want 60", len(samples))
	}
	for k, s := range samples {
		if !s.ok {
			t.Fatalf("request %d failed", k)
		}
	}
	// Request stallAt+k was due 5k ms into a 50 ms stall.
	behind := 0
	for k := 1; k <= 5; k++ {
		s := samples[stallAt+k]
		want := stall - time.Duration(k)*5*time.Millisecond
		if got := s.done.Sub(s.intended); got < want-2*time.Millisecond {
			t.Errorf("request %d: latency %v from its due time, want at least about %v", stallAt+k, got, want)
		}
		if own := s.done.Sub(s.start); own < 10*time.Millisecond {
			behind++ // itself fast: the latency above is all inherited wait
		}
	}
	if behind < 4 {
		t.Errorf("only %d of 5 requests behind the stall were themselves fast; the stub is not stalling once", behind)
	}
	// Well clear of the stall the schedule has caught up again.
	if got := samples[59].done.Sub(samples[59].intended); got > 20*time.Millisecond {
		t.Errorf("last request still %v late: the backlog never drained", got)
	}
	rep := summariseRate(rate, samples)
	if rep.p99US < 40e3 {
		t.Errorf("p99 %v us does not show the 50 ms stall", rep.p99US)
	}
}

func TestSegmentRatesAreNotQuantised(t *testing.T) {
	// One completion every 30 ms for 1.6 s: 3.33 per 100 ms segment, which
	// a whole-count-per-segment estimate would report as 30 or 40 per second.
	start := time.Now()
	var samples []sample
	for at := 30 * time.Millisecond; at < 1600*time.Millisecond; at += 30 * time.Millisecond {
		samples = append(samples, sample{kind: opStep, ok: true, done: start.Add(at)})
	}
	all := segmentRates(start, 1600*time.Millisecond, samples, okStep)
	if len(all) != loopSegments {
		t.Fatalf("%d segments, want %d", len(all), loopSegments)
	}
	for seg, r := range all {
		if math.Abs(r-1000.0/30) > 1e-6 {
			t.Errorf("segment %d: %v per second, want %v", seg, r, 1000.0/30)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// declaration is BENCHMARK.json as committed.
type declaration struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readDeclaration(t *testing.T) declaration {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declaration
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		t.Fatal(err)
	}
	if want := benchmarkJSON(); !bytes.Equal(bytes.TrimSpace(raw), want) {
		t.Errorf("BENCHMARK.json is not what spec.go declares; regenerate it with: go run ./benchmark -spec > BENCHMARK.json")
	}
	return d
}

func TestDeclarationIsWellFormed(t *testing.T) {
	d := readDeclaration(t)
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q is not [A-Za-z0-9_.-]+ of at most 64", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(d.Workloads) < 2 || len(d.Workloads) > 8 {
		t.Errorf("%d workloads, want 2 to 8", len(d.Workloads))
	}
	for _, w := range d.Workloads {
		name("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range d.EndToEnd {
		name("metric", m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v is out of the contract", m)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Errorf("setup_s (s, lower) is missing from the end-to-end metrics")
	}
	if len(d.PerLayer) < 1 || len(d.PerLayer) > 128 || len(d.EndToEnd) > 16 {
		t.Errorf("%d end-to-end and %d per-layer metrics are out of the contract", len(d.EndToEnd), len(d.PerLayer))
	}
	for _, m := range d.PerLayer {
		name("metric", m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %+v is out of the contract", m)
		}
	}
	if d.RunSeconds != runSeconds || d.RunSeconds < 1 || d.RunSeconds > 60 {
		t.Errorf("run_seconds %d", d.RunSeconds)
	}
}

// runSmoke runs one workload in this process at -smoke size and returns its
// parsed result line.
func runSmoke(t *testing.T, workload string, trace int, seed int64) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", "1", "--trace", fmt.Sprint(trace), "-smoke"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("%s (trace %d) exited %d\n%s%s", workload, trace, code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("%s: last line is not a result: %v\n%s", workload, err, lines[len(lines)-1])
	}
	if !strings.HasPrefix(lines[len(lines)-2], `info {"env":{"seed":`) {
		t.Errorf("%s: no environment record above the result: %s", workload, lines[len(lines)-2])
	}
	return res
}

// TestSmokeEmitsExactlyWhatIsDeclared runs every workload end to end at
// -smoke size, untraced and traced, with all checks on, and holds the names
// and units each prints to BENCHMARK.json, in both directions.
func TestSmokeEmitsExactlyWhatIsDeclared(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs mwserved")
	}
	d := readDeclaration(t)
	want := [2]map[string]string{{}, {}}
	for _, m := range d.EndToEnd {
		want[0][m.Name] = m.Unit
	}
	for _, m := range d.PerLayer {
		want[1][m.Name] = m.Unit
	}
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(d.Workloads), len(workloads))
	}
	for _, w := range d.Workloads {
		for trace := 0; trace <= 1; trace++ {
			res := runSmoke(t, w.Name, trace, defaultSeed)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (trace %d): correct=%v, %d of %d failed", w.Name, trace, res.Correct, res.Failed, res.Attempted)
			}
			got := map[string]string{}
			for name, v := range res.Metrics {
				got[name] = v.Unit
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s: %s is %v", w.Name, name, v.Value)
				}
				if trace == 0 && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v; they must never be 0", w.Name, name, v.Value)
				}
			}
			if fmt.Sprint(sortedPairs(got)) != fmt.Sprint(sortedPairs(want[trace])) {
				t.Errorf("%s (trace %d) emitted\n%v\nbut BENCHMARK.json declares\n%v", w.Name, trace, sortedPairs(got), sortedPairs(want[trace]))
			}
		}
		var tf traceFile
		raw, err := os.ReadFile("out/trace-" + w.Name + ".json")
		if err == nil {
			err = json.Unmarshal(raw, &tf)
		}
		if err != nil || tf.Workload != w.Name || len(tf.Spans) == 0 || tf.Env.NProc == 0 || tf.Env.GoVersion == "" || tf.Env.CPUModel == "" {
			t.Errorf("%s: span file missing, empty or without its environment record: %v", w.Name, err)
		}
	}
}

func sortedPairs(m map[string]string) []string {
	var out []string
	for k, v := range m {
		out = append(out, k+" "+v)
	}
	sort.Strings(out)
	return out
}

// TestSeedDiscipline: the seed, and nothing else, decides the inputs.
func TestSeedDiscipline(t *testing.T) {
	exact := []string{"core.rebuild_every_steps", "cells.half_pairs", "cells.cluster_entries"}
	a, b := runSmoke(t, "al1000", 1, 7), runSmoke(t, "al1000", 1, 7)
	for _, name := range exact {
		if a.Metrics[name].Value != b.Metrics[name].Value || a.Metrics[name].Value == 0 {
			t.Errorf("seed 7 twice: %s = %v then %v", name, a.Metrics[name].Value, b.Metrics[name].Value)
		}
	}
	// The allocation counter is the process's, so the runtime's own odd
	// allocation may land in it: whole allocations per step must agree.
	if x, y := a.Metrics["core.allocs_per_step"].Value, b.Metrics["core.allocs_per_step"].Value; math.Round(x) != math.Round(y) {
		t.Errorf("seed 7 twice: core.allocs_per_step = %v then %v", x, y)
	}

	for _, input := range []string{"al1000", "salt", "nanocar", "ljliquid8k"} {
		s1, _ := generate(input, 1)
		again, _ := generate(input, 1)
		s2, _ := generate(input, 2)
		if s1.N() != s2.N() {
			t.Errorf("%s: %d atoms at seed 1, %d at seed 2", input, s1.N(), s2.N())
		}
		same, sameAgain := true, true
		for i := range s1.Vel {
			same = same && s1.Vel[i] == s2.Vel[i]
			sameAgain = sameAgain && s1.Vel[i] == again.Vel[i] && s1.Pos[i] == again.Pos[i]
		}
		if same {
			t.Errorf("%s: seeds 1 and 2 drew the same velocities", input)
		}
		if !sameAgain {
			t.Errorf("%s: seed 1 twice gave different systems", input)
		}
	}
	s1, _ := generate("al1000", 1)
	s2, _ := generate("al1000", 2)
	if last := s1.N() - 1; s1.Vel[last] != s2.Vel[last] || s1.Vel[last] == (vec3{}) {
		t.Errorf("al1000: the projectile's velocity must not depend on the seed")
	}
}
