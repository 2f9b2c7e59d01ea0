package experiments

import (
	"strings"
	"testing"
	"time"

	"mw/internal/core"
	"mw/internal/jheap"
	"mw/internal/stats"
)

func TestTable1MatchesPaper(t *testing.T) {
	out := Table1()
	for _, frag := range []string{
		"nanocar", "989", "2277", "Bonds",
		"salt", "800", "Ionic",
		"Al-1000", "1000", "Lennard-Jones",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("Table1 missing %q:\n%s", frag, out)
		}
	}
}

func TestTable2MatchesPaper(t *testing.T) {
	out := Table2(false)
	for _, frag := range []string{
		"Core i7 920", "1x4", "8 MB shared/4 cores", "6 GB",
		"Xeon E5450", "2x4", "6 MB shared/2 cores", "16 GB",
		"Xeon X7560", "4x8", "24 MB shared/8 cores", "192 GB",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("Table2 missing %q:\n%s", frag, out)
		}
	}
	verbose := Table2(true)
	if !strings.Contains(verbose, "Machine #0") || !strings.Contains(verbose, "PU #") {
		t.Error("verbose Table2 missing topology trees")
	}
}

func TestFig1ShapeMatchesPaper(t *testing.T) {
	// Small budget run: the ordering and the headline gap must hold —
	// salt and nanocar scale, Al-1000 barely does.
	r, err := Fig1(120_000_000)
	if err != nil {
		t.Fatal(err)
	}
	salt := r.Speedup["salt"][3]
	nano := r.Speedup["nanocar"][3]
	al := r.Speedup["Al-1000"][3]
	if salt < 2.5 {
		t.Errorf("salt 4-core speedup %v < 2.5 (paper 3.63)", salt)
	}
	if nano < 2.2 {
		t.Errorf("nanocar 4-core speedup %v < 2.2 (paper 3.03)", nano)
	}
	if al > 2.2 {
		t.Errorf("Al-1000 4-core speedup %v > 2.2 (paper 1.42)", al)
	}
	if !(salt > al && nano > al) {
		t.Errorf("ordering violated: salt %v, nanocar %v, Al-1000 %v", salt, nano, al)
	}
	// Every curve starts at 1.
	for name, sp := range r.Speedup {
		if sp[0] != 1 {
			t.Errorf("%s speedup(1) = %v", name, sp[0])
		}
	}
	if !strings.Contains(r.Report, "Fig 1") {
		t.Error("report missing title")
	}
}

func TestFig2Shape(t *testing.T) {
	r := Fig2()
	if r.CoresVisited != 4 {
		t.Errorf("worker visited %d cores, want 4", r.CoresVisited)
	}
	if r.QuantaTo4 == 0 || r.QuantaTo4 > 1000 {
		t.Errorf("all cores visited in %d ms, paper observed <1s", r.QuantaTo4)
	}
	if r.Migrations == 0 {
		t.Error("no migrations without pinning")
	}
	if !strings.Contains(r.Report, "core 3") {
		t.Error("heat map missing rows")
	}
}

func TestTable3Shape(t *testing.T) {
	r, err := Table3(6)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Seconds) != 7 {
		t.Fatalf("rows = %d", len(r.Seconds))
	}
	sec := map[string]float64{}
	for i, row := range r.Rows {
		sec[itoaKey(row.Cores, row.Topology)] = r.Seconds[i]
	}
	// Spread across packages is the worst 4-core topology (the paper's
	// 172.2 s row).
	spread4 := sec[itoaKey(4, "one core per processor")]
	if spread4 < sec[itoaKey(4, "4 cores on one processor")] ||
		spread4 < sec[itoaKey(4, "OS scheduled")] {
		t.Errorf("4-core spread (%v) is not the slowest 4-core row", spread4)
	}
	// 8 pinned cores on one socket beat every 4-core row.
	if sec[itoaKey(8, "8 cores on one processor")] >= sec[itoaKey(4, "OS scheduled")] {
		t.Error("8 pinned cores not faster than 4 cores")
	}
	// One-socket pinning is the best 8-core row.
	one8 := sec[itoaKey(8, "8 cores on one processor")]
	if one8 > sec[itoaKey(8, "OS scheduled")] || one8 > sec[itoaKey(8, "two cores per processor")] {
		t.Error("8-on-one-socket is not the fastest 8-core row")
	}
	// 32 OS is the overall fastest.
	for k, v := range sec {
		if v < sec[itoaKey(32, "OS scheduled")] {
			t.Errorf("row %s (%v) faster than 32-core OS", k, v)
		}
	}
}

func itoaKey(cores int, topo string) string {
	return strings.TrimSpace(topo) + "/" + strings.Repeat("I", cores)
}

func TestObserverModeledOrdering(t *testing.T) {
	r, err := Observer(4000, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	sync := r.ModelMonitored["synchronized"]
	atomic := r.ModelMonitored["atomic"]
	sharded := r.ModelMonitored["sharded"]
	if !(sync > atomic && atomic > sharded) {
		t.Errorf("modeled ordering violated: sync %d, atomic %d, sharded %d", sync, atomic, sharded)
	}
	if sharded < r.ModelBaseline {
		t.Errorf("sharded monitor faster than no monitor: %d vs %d", sharded, r.ModelBaseline)
	}
	// Synchronized monitoring costs at least 15% on the modeled machine.
	if float64(sync)/float64(r.ModelBaseline) < 1.15 {
		t.Errorf("synchronized slowdown %v too small", float64(sync)/float64(r.ModelBaseline))
	}
	if r.Baseline <= 0 || r.EngineBaseline <= 0 {
		t.Error("wall-clock baselines missing")
	}
	for _, name := range []string{"synchronized", "atomic", "sharded"} {
		if r.EngineMonitored[name] <= 0 {
			t.Errorf("engine row %q missing: wall %v", name, r.EngineMonitored[name])
		}
	}
}

func TestSamplingGranularityShape(t *testing.T) {
	r := Sampling(1500)
	fine := r.Reports[100*time.Microsecond]
	coarse := r.Reports[10*time.Millisecond]
	second := r.Reports[time.Second]
	if fine.DetectionRate() < 0.9 {
		t.Errorf("fine sampler detection %v", fine.DetectionRate())
	}
	if coarse.DetectionRate() >= fine.DetectionRate() {
		t.Error("coarse sampler not worse than fine")
	}
	if second.DetectionRate() > 0.15 {
		t.Errorf("1s sampler detected %v of 500µs events", second.DetectionRate())
	}
}

func TestImbalanceBlockWorstForSalt(t *testing.T) {
	r, err := Imbalance(8)
	if err != nil {
		t.Fatal(err)
	}
	// Salt's triangular Coulomb load: block much worse than cyclic. Judged
	// on the per-worker pair loads, not on wall-clock busy time, which on a
	// host with fewer CPUs than workers measures the scheduler instead.
	imb := map[core.Partition]float64{}
	for _, row := range staticWorkRows() {
		if strings.HasPrefix(row.name, "salt") {
			imb[row.part] = stats.Imbalance(row.loads)
		}
	}
	if block, cyclic := imb[core.PartitionBlock], imb[core.PartitionCyclic]; block <= cyclic {
		t.Errorf("salt block imbalance %v not above cyclic %v", block, cyclic)
	}
	if len(r.Rows) == 0 {
		t.Error("no wall-clock imbalance rows")
	}
	if !strings.Contains(r.Report, "Static work distribution") {
		t.Error("static work table missing")
	}
}

func TestPackingLayoutOrdering(t *testing.T) {
	r, err := Packing(4)
	if err != nil {
		t.Fatal(err)
	}
	byLayout := map[jheap.Layout]PackingRow{}
	for _, row := range r.Rows {
		byLayout[row.Layout] = row
	}
	if byLayout[jheap.LayoutPacked].Cycles >= byLayout[jheap.LayoutScattered].Cycles {
		t.Errorf("packed (%d) not faster than scattered (%d)",
			byLayout[jheap.LayoutPacked].Cycles, byLayout[jheap.LayoutScattered].Cycles)
	}
	if byLayout[jheap.LayoutPacked].L2MissRate >= byLayout[jheap.LayoutScattered].L2MissRate {
		t.Error("packed L2 miss rate not below scattered")
	}
}

func TestPollutionFindings(t *testing.T) {
	r, err := Pollution(4)
	if err != nil {
		t.Fatal(err)
	}
	if r.Vec3Fraction <= 0.5 {
		t.Errorf("Vec3 live-heap share %v ≤ 0.5 (paper: over 50%%)", r.Vec3Fraction)
	}
	if r.CyclesWithTemps <= r.CyclesWithoutTemps {
		t.Error("temp churn did not slow the run")
	}
	if r.MissesWithTemps <= r.MissesWithoutTemps {
		t.Error("temp churn did not push more accesses past L2")
	}
}

func TestPMEAccuracyAndScaling(t *testing.T) {
	r, err := PME(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.EnergyRelErr > 0.01 {
			t.Errorf("N=%d energy error %v", row.N, row.EnergyRelErr)
		}
		if row.ForceRelErr > 0.05 {
			t.Errorf("N=%d force error %v", row.N, row.ForceRelErr)
		}
	}
	// PME/direct ratio must fall with N (the crossover trend).
	r0 := r.Rows[0].PMESec / r.Rows[0].DirectSec
	r1 := r.Rows[1].PMESec / r.Rows[1].DirectSec
	if r1 >= r0 {
		t.Errorf("PME/direct ratio not falling: %v → %v", r0, r1)
	}
}

func TestAblationRuns(t *testing.T) {
	r, err := Ablation(6)
	if err != nil {
		t.Fatal(err)
	}
	if r.SharedQueueSec <= 0 || r.PerQueueSec <= 0 || r.PrivatizedSec <= 0 || r.MutexSec <= 0 {
		t.Error("missing timings")
	}
	// The half-list shape is deterministic: front third owns more pairs.
	if r.HalfFirstThird <= r.HalfLastThird {
		t.Errorf("half-list shape wrong: %d vs %d", r.HalfFirstThird, r.HalfLastThird)
	}
	if !strings.Contains(r.Report, "queue topology") {
		t.Error("report incomplete")
	}
}

func TestThreadViewReport(t *testing.T) {
	r, err := ThreadView(10)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"ground truth", "sample-and-hold", "thread 3"} {
		if !strings.Contains(r.Report, frag) {
			t.Errorf("threadview report missing %q", frag)
		}
	}
	if len(r.Timeline.PhaseSpans) != 10 {
		t.Errorf("recorded %d phase spans, want 10", len(r.Timeline.PhaseSpans))
	}
	// Block partition on salt: strong spread between the heaviest and
	// lightest workers (the triangular Coulomb chunks land as one block).
	busy := make([]time.Duration, 4)
	for _, span := range r.Timeline.PhaseSpans {
		for w, d := range span.Busy {
			busy[w] += d
		}
	}
	mx, mn := busy[0], busy[0]
	for _, d := range busy[1:] {
		if d > mx {
			mx = d
		}
		if d < mn {
			mn = d
		}
	}
	if float64(mx) < 1.5*float64(mn) {
		t.Errorf("block partition spread too small: %v", busy)
	}
}

func TestFig1NativeRuns(t *testing.T) {
	r, err := Fig1Native(5)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range r.Order {
		sp := r.Speedup[name]
		if len(sp) != 4 || sp[0] != 1 {
			t.Errorf("%s speedup series malformed: %v", name, sp)
		}
	}
	if !strings.Contains(r.Report, "native") {
		t.Error("native report missing label")
	}
}

func TestScalingExponents(t *testing.T) {
	r, err := Scaling(6)
	if err != nil {
		t.Fatal(err)
	}
	if r.LJSlope < 0.6 || r.LJSlope > 1.4 {
		t.Errorf("LJ exponent %v outside ~O(N)", r.LJSlope)
	}
	if r.CoulSlope < 1.6 || r.CoulSlope > 2.4 {
		t.Errorf("Coulomb exponent %v outside ~O(N²)", r.CoulSlope)
	}
	if r.CoulSlope <= r.LJSlope {
		t.Error("Coulomb path does not scale worse than LJ path")
	}
}
