package main

import (
	"bytes"
	"time"
)

// replayLayers times each stage of a force phase on its own, from outside,
// through the owning layer's public function, on a clone of a workload's
// state. Every repetition is one replay.step span that walks the stages in
// the order a rebuild step runs them, so each stage meets the caches the
// way it does in the engine: evicted by the stages around it. Medians over
// the repetitions become the cells.*, atom.*, forces.*, pool.* and mml.*
// metrics; a stage that does no work on this system reads 0.
//
// fastPath says which kernels the workload's own steps use, for
// core.replay_residual_pct only.
func replayLayers(sys *system, cfg engineConfig, fastPath bool, name string, reps int, m *metrics, tr *tracer) {
	p := newLayerProbe(sys, cfg)
	stageUS := map[string][]float64{}
	var parent int32
	var rep int64
	stage := func(stage string, fn func()) {
		t0 := time.Now()
		fn()
		t1 := time.Now()
		tr.add(parent, stage, tr.since(t0), tr.since(t1), rep, "")
		stageUS[stage] = append(stageUS[stage], float64(t1.Sub(t0))/1e3)
	}
	var sink float64
	var simdUS [stackPositions][]float64
	for rep = 0; rep < int64(reps); rep++ {
		t0 := time.Now()
		parent = tr.add(0, "replay.step", tr.since(t0), tr.since(t0), rep, "")
		for i := range p.f {
			p.f[i] = vec3{}
		}
		stage("atom.reorder", p.reorder)
		stage("cells.assign", p.assign)
		stage("cells.build_range", p.buildRange)
		stage("cells.build_cluster", p.buildCluster)
		stage("cells.pack", p.pack)
		stage("cells.max_disp", func() { sink += p.maxDisp() })
		stage("forces.lj_ref", func() { sink += p.ljRef() })
		if p.fastKernelApplies() {
			stage("forces.lj_fast", func() { sink += p.ljFast() })
		}
		if p.simdKernelApplies() {
			// The packed kernel's speed depends on its stack depth (stack.go):
			// repetitions take turns at the depths, the best depth is reported.
			at := int(rep) % stackPositions
			before := len(stageUS["forces.lj_simd"])
			atDepth(at, func() { stage("forces.lj_simd", func() { sink += p.ljSIMD() }) })
			simdUS[at] = append(simdUS[at], stageUS["forces.lj_simd"][before])
		}
		if len(p.charged) > 1 {
			stage("forces.coulomb", func() { sink += p.coulomb() })
		}
		if p.bondedTerms > 0 {
			stage("forces.bonded", func() { sink += p.bonded() })
		}
		tr.end(parent, tr.since(time.Now()))
	}
	replaySink = sink

	med := func(stage string) float64 { return median(stageUS[stage]) }
	simd := 0.0
	for _, us := range simdUS {
		if m := median(us); len(us) > 0 && (simd == 0 || m < simd) {
			simd = m
		}
	}
	perPair := func(us float64, pairs int) float64 {
		if pairs == 0 {
			return 0
		}
		return us * 1e3 / float64(pairs)
	}
	half, entries, masked := p.halfPairs(), p.clusterEntries(), p.maskedPairs()
	m.set("atom.reorder_us", med("atom.reorder"))
	m.set("cells.assign_us", med("cells.assign"))
	m.set("cells.build_range_us", med("cells.build_range"))
	m.set("cells.build_cluster_us", med("cells.build_cluster"))
	m.set("cells.build_cluster_ns_per_pair", perPair(med("cells.build_cluster"), masked))
	m.set("cells.pack_us", med("cells.pack"))
	m.set("cells.max_disp_us", med("cells.max_disp"))
	m.set("cells.half_pairs", float64(half))
	m.set("cells.cluster_entries", float64(entries))
	if entries > 0 {
		m.set("cells.cluster_lane_fill", float64(masked)/(16*float64(entries)))
	}
	m.set("forces.lj_ref_ns_per_pair", perPair(med("forces.lj_ref"), half))
	m.set("forces.lj_fast_ns_per_pair", perPair(med("forces.lj_fast"), half))
	m.set("forces.lj_simd_ns_per_pair", perPair(simd, masked))
	nc := len(p.charged)
	m.set("forces.coulomb_ns_per_pair", perPair(med("forces.coulomb"), nc*(nc-1)/2))
	m.set("forces.bonded_us", med("forces.bonded"))
	m.set("forces.bonded_ns_per_term", perPair(med("forces.bonded"), p.bondedTerms))

	// What a plain (non-rebuilding) step does, as far as the replay saw it.
	explained := med("cells.max_disp") + med("forces.coulomb") + med("forces.bonded")
	switch {
	case !fastPath:
		explained += med("forces.lj_ref")
	case p.simdKernelApplies():
		explained += med("cells.pack") + simd
	}
	if plain := m.values["core.step_plain_us"]; plain > 0 {
		m.set("core.replay_residual_pct", 100*(plain-explained)/plain)
	}

	// One empty phase on a pool of P workers.
	d := newDispatchProbe(engineThreads())
	var dispatch []float64
	for i := 0; i < 10*reps; i++ {
		t0 := time.Now()
		d.run()
		dispatch = append(dispatch, float64(time.Since(t0))/1e3)
	}
	d.close()
	m.set("pool.phase_dispatch_us", median(dispatch))

	// Parsing and materialising this system's own MML document.
	doc := modelDocument(name, sys, cfg)
	var load []float64
	for i := 0; i < max(reps/10, 3); i++ {
		t0 := time.Now()
		if _, _, err := loadDocument(bytes.NewReader(doc)); err != nil {
			panic("benchmark: a generated model did not load back: " + err.Error())
		}
		t1 := time.Now()
		tr.add(0, "mml.load", tr.since(t0), tr.since(t1), int64(i), "")
		load = append(load, float64(t1.Sub(t0))/1e6)
	}
	m.set("mml.load_ms", median(load))
	m.set("mml.model_kb", float64(len(doc))/1024)
}

// replaySink keeps the replayed kernels' results alive.
var replaySink float64
