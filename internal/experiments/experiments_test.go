package experiments

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"dve/internal/results"
	"dve/internal/topology"
	"dve/internal/workload"
)

// subset keeps test runtime modest: two deny-winners, two allow-winners.
var subset = []string{"xsbench", "fft", "lbm", "lu"}

func testRunner() Runner {
	return Runner{Scale: Quick, Parallelism: 8, Workloads: subset}
}

func TestPerfShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation matrix")
	}
	perf, err := testRunner().Perf()
	if err != nil {
		t.Fatal(err)
	}
	if len(perf.Rows) != len(subset) {
		t.Fatalf("%d rows, want %d", len(perf.Rows), len(subset))
	}
	for _, r := range perf.Rows {
		// Every benchmark, every scheme: >= baseline (the paper's "all
		// benchmarks for all schemes perform equal to or better").
		for s, v := range r.Speedup {
			if v < 0.99 {
				t.Errorf("%s/%s speedup %.3f below baseline", r.Name, s, v)
			}
		}
		// Protocol winner matches the paper's Fig 6 split.
		denyWins := r.Speedup["deny"] > r.Speedup["allow"]
		if workload.DenyWinners[r.Name] != denyWins {
			t.Errorf("%s: deny wins=%v, paper says %v", r.Name, denyWins, workload.DenyWinners[r.Name])
		}
		// Dvé reduces inter-socket traffic (Fig 8).
		for _, s := range []string{"allow", "deny"} {
			if r.Traffic[s] >= 1 {
				t.Errorf("%s/%s traffic ratio %.3f not reduced", r.Name, s, r.Traffic[s])
			}
		}
		// Dynamic tracks within a few percent of the better static scheme.
		best := r.Speedup["allow"]
		if r.Speedup["deny"] > best {
			best = r.Speedup["deny"]
		}
		if r.Speedup["dynamic"] < 0.93*best {
			t.Errorf("%s: dynamic %.3f far below best static %.3f", r.Name, r.Speedup["dynamic"], best)
		}
	}
	// MPKI ordering is descending.
	for i := 1; i < len(perf.Rows); i++ {
		if perf.Rows[i].MPKI > perf.Rows[i-1].MPKI {
			t.Fatal("rows not sorted by descending MPKI")
		}
	}
	// Dvé beats the Intel-mirroring++ baseline on geomean (Section VII).
	n := len(perf.Rows)
	if perf.Geomean("deny", n) <= perf.Geomean("intel-mirror++", n) {
		t.Error("deny does not beat Intel-mirroring++")
	}
	// Energy shape: system-EDP improves for the replication schemes.
	_, sys := perf.GeomeanEDP("deny")
	if sys >= 1 {
		t.Errorf("deny system-EDP %.3f did not improve", sys)
	}

	// Formatting smoke tests over real data.
	for _, out := range []string{
		FormatFig6(perf), FormatFig7(perf), FormatFig8(perf), FormatEnergy(perf),
	} {
		if len(out) == 0 {
			t.Fatal("empty formatted output")
		}
	}
	if !strings.Contains(FormatFig6(perf), "geomean") {
		t.Error("Fig 6 output missing geomeans")
	}
}

func TestFig9Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation matrix")
	}
	r := Runner{Scale: Quick, Parallelism: 8, Workloads: []string{"fft", "lbm"}}
	f9, err := r.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range f9.Rows {
		// The oracle is the ceiling for every allow variant.
		for _, v := range Fig9Variants[:3] {
			if row.Speedup[v] > row.Speedup["allow-oracle"]+0.02 {
				t.Errorf("%s: %s (%.3f) exceeds the oracle (%.3f)",
					row.Name, v, row.Speedup[v], row.Speedup["allow-oracle"])
			}
		}
		// A larger replica directory never hurts.
		if row.Speedup["allow-4k"] < row.Speedup["allow-2k"]-0.01 {
			t.Errorf("%s: 4K entries (%.3f) worse than 2K (%.3f)",
				row.Name, row.Speedup["allow-4k"], row.Speedup["allow-2k"])
		}
	}
	if !strings.Contains(FormatFig9(f9), "allow-oracle") {
		t.Error("Fig 9 output missing variants")
	}
}

func TestFig10Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation matrix")
	}
	r := Runner{Scale: Quick, Parallelism: 8, Workloads: []string{"xsbench", "bfs"}}
	f10, err := r.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	// Deny's benefit grows with link latency and stays positive at 30ns.
	if f10.All[30]["deny"] <= 1.0 {
		t.Errorf("deny at 30ns = %.3f, want > 1 (paper: +10%% overall)", f10.All[30]["deny"])
	}
	if f10.All[60]["deny"] <= f10.All[30]["deny"] {
		t.Errorf("deny benefit does not grow with latency: 30ns %.3f vs 60ns %.3f",
			f10.All[30]["deny"], f10.All[60]["deny"])
	}
	if !strings.Contains(FormatFig10(f10), "30ns") {
		t.Error("Fig 10 output missing latencies")
	}
}

func TestTable1Output(t *testing.T) {
	out := Table1()
	for _, want := range []string{"Chipkill", "Dve+TSD", "IBM RAIM", "Dve+Chipkill", "miss rate"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 output missing %q", want)
		}
	}
}

func TestFig1Output(t *testing.T) {
	out := Fig1()
	for _, want := range []string{"SEC-DED", "Chipkill", "Dvé", "43.8%"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig1 output missing %q:\n%s", want, out)
		}
	}
}

func TestVerifyOutput(t *testing.T) {
	out := Verify()
	if strings.Count(out, "VERIFIED") != 2 {
		t.Errorf("expected both protocols verified:\n%s", out)
	}
}

func TestSuiteComplete(t *testing.T) {
	if len(Suite()) != 20 {
		t.Fatalf("suite has %d workloads, want 20", len(Suite()))
	}
}

func TestRunnerUnknownWorkloadErrors(t *testing.T) {
	// A typo in the workload list must fail the sweep, not silently shrink
	// it (it used to drop the name and run an incomplete matrix).
	r := Runner{Scale: Quick, Workloads: []string{"fft", "nosuch"}}
	if _, err := r.suite(); err == nil || !strings.Contains(err.Error(), "nosuch") {
		t.Fatalf("suite() err = %v, want mention of the unknown name", err)
	}
	if _, err := r.Perf(); err == nil || !strings.Contains(err.Error(), "nosuch") {
		t.Fatalf("Perf() err = %v, want mention of the unknown name", err)
	}
	if _, err := r.Fig9(); err == nil {
		t.Fatal("Fig9() accepted unknown workload")
	}
	if _, err := r.Fig10(); err == nil {
		t.Fatal("Fig10() accepted unknown workload")
	}
}

func TestScaleByName(t *testing.T) {
	for name, want := range map[string]Scale{"quick": Quick, "standard": Standard, "full": Full} {
		got, err := ScaleByName(name)
		if err != nil || got != want {
			t.Fatalf("ScaleByName(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ScaleByName("huge"); err == nil {
		t.Fatal("unknown scale accepted")
	}
}

func TestRatioDegenerateBaseline(t *testing.T) {
	if got := ratio(5, 10); got != 0.5 {
		t.Fatalf("ratio(5,10) = %v", got)
	}
	// A zero baseline is a broken run: NaN, never a too-good-to-be-true 0.
	if got := ratio(5, 0); !math.IsNaN(got) {
		t.Fatalf("ratio(5,0) = %v, want NaN", got)
	}
}

func TestRunMatrixAggregatesAllErrors(t *testing.T) {
	// Two invalid cells (a non-positive footprint fails spec validation)
	// among one valid cell: both failures must be in the error, and the
	// message must be deterministic across scheduling orders.
	good, _ := workload.ByName("fft", 16)
	badA, badB := good, good
	badA.Name, badA.FootprintMB = "bad-a", 0
	badB.Name, badB.FootprintMB = "bad-b", 0
	cells := []cell{
		{spec: badA, variant: "deny", cfg: topology.Default(topology.ProtoDeny)},
		{spec: good, variant: "deny", cfg: topology.Default(topology.ProtoDeny)},
		{spec: badB, variant: "deny", cfg: topology.Default(topology.ProtoDeny)},
	}
	r := Runner{Scale: Scale{WarmupOps: 100, MeasureOps: 200}, Parallelism: 4}
	var msg string
	for i := 0; i < 3; i++ {
		out, err := r.runMatrix(cells)
		if err == nil {
			t.Fatal("runMatrix succeeded with broken cells")
		}
		for _, want := range []string{"2 of 3 cells failed", "bad-a/deny", "bad-b/deny"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q missing %q", err, want)
			}
		}
		if _, ok := out["fft/deny"]; !ok {
			t.Fatal("healthy cell missing from partial results")
		}
		if i == 0 {
			msg = err.Error()
		} else if err.Error() != msg {
			t.Fatal("joined error message not deterministic across runs")
		}
	}
}

func TestRunCellRetries(t *testing.T) {
	bad, _ := workload.ByName("fft", 16)
	bad.FootprintMB = 0
	r := Runner{Scale: Scale{WarmupOps: 10, MeasureOps: 10}, Retries: 2}
	_, _, err := r.RunCell(bad, topology.Default(topology.ProtoBaseline), false)
	if err == nil {
		t.Fatal("RunCell succeeded with a broken spec")
	}
	for _, want := range []string{"attempt 1:", "attempt 3:"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q missing %q", err, want)
		}
	}
}

func TestMatrixCacheRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation matrix")
	}
	store, err := results.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := Runner{Scale: Quick, Parallelism: 8, Workloads: []string{"fft", "lbm"}, Cache: store}
	cold, err := r.Perf()
	if err != nil {
		t.Fatal(err)
	}
	if s := store.Stats(); s.Hits != 0 || s.Puts == 0 {
		t.Fatalf("cold pass stats %v, want all misses and some puts", s)
	}
	warm, err := r.Perf()
	if err != nil {
		t.Fatal(err)
	}
	if s := store.Stats(); s.Misses != s.Puts || s.Hits != s.Puts {
		t.Fatalf("warm pass stats %v, want every cold miss answered by a hit", s)
	}
	// The cached matrix reproduces the simulated one exactly.
	coldJSON, _ := json.Marshal(cold)
	warmJSON, _ := json.Marshal(warm)
	if !bytes.Equal(coldJSON, warmJSON) {
		t.Fatal("cached Perf result differs from the simulated one")
	}
}

func TestBenchCacheRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation matrix")
	}
	store, err := results.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := Runner{Scale: Scale{WarmupOps: 2_000, MeasureOps: 5_000}, Cache: store}
	cold, err := r.Bench("quick")
	if err != nil {
		t.Fatal(err)
	}
	warm, err := r.Bench("quick")
	if err != nil {
		t.Fatal(err)
	}
	// Wall-clock measurements are replayed, not re-measured, so repeated
	// bench reports are byte-identical.
	coldJSON, _ := json.MarshalIndent(cold, "", "  ")
	warmJSON, _ := json.MarshalIndent(warm, "", "  ")
	if !bytes.Equal(coldJSON, warmJSON) {
		t.Fatalf("warm bench report differs from cold:\n%s\n---\n%s", coldJSON, warmJSON)
	}
	if s := store.Stats(); s.Hits != uint64(len(warm.Runs)) {
		t.Fatalf("warm bench stats %v, want %d hits", s, len(warm.Runs))
	}
}

// TestBenchRowsUnique: a bench report holds one row per matrix cell, so a
// baseline check can tell every row apart by (workload, protocol, engine).
// canneal/dynamic cannot partition and is the one legacy row.
func TestBenchRowsUnique(t *testing.T) {
	r := Runner{Scale: Scale{WarmupOps: 500, MeasureOps: 1_000}}
	rep, err := r.Bench("tiny")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != len(benchMatrix) {
		t.Errorf("%d bench rows for %d cells", len(rep.Runs), len(benchMatrix))
	}
	type rowID struct{ workload, protocol, engine string }
	seen := map[rowID]bool{}
	legacy := 0
	for _, run := range rep.Runs {
		id := rowID{run.Workload, run.Protocol, run.Engine}
		if seen[id] {
			t.Errorf("duplicate bench row %+v", id)
		}
		seen[id] = true
		if run.Engine == "legacy" {
			legacy++
		}
	}
	if legacy != 1 {
		t.Errorf("%d legacy rows, want 1 (canneal/dynamic)", legacy)
	}
}

func TestFaultCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation matrix")
	}
	r := Runner{Scale: Quick, Parallelism: 8}
	results, err := r.FaultCampaign("graph500")
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]FaultResult{}
	for _, res := range results {
		byKey[res.Scenario+"/"+res.Protocol] = res
	}
	for _, sc := range Scenarios() {
		base := byKey[sc.Name+"/baseline"]
		dve := byKey[sc.Name+"/deny"]
		// Dvé recovers everything single-sided; the baseline takes DUEs for
		// every fault the local code cannot correct.
		if dve.DUEs != 0 {
			t.Errorf("%s: Dvé took %d DUEs", sc.Name, dve.DUEs)
		}
		if base.DUEs == 0 {
			t.Errorf("%s: baseline took no DUEs despite an uncorrectable fault", sc.Name)
		}
		if dve.Recoveries == 0 {
			t.Errorf("%s: Dvé never recovered", sc.Name)
		}
	}
	// Section V-E: even with a whole controller failed (every home read on
	// socket 0 served by the replica), the degraded Dvé system retains
	// performance comparable to the fault-free baseline.
	ctl := byKey["controller/deny"]
	if ctl.RelPerf < 0.80 {
		t.Errorf("degraded Dvé retains only %.2fx of fault-free baseline (want >= 0.80)", ctl.RelPerf)
	}
	if out := FormatFaultCampaign(results); !strings.Contains(out, "controller") {
		t.Error("campaign output incomplete")
	}
}

func TestFaultCampaignUnknownWorkload(t *testing.T) {
	r := Runner{Scale: Quick}
	if _, err := r.FaultCampaign("nosuch"); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// TestRetryBackoffFullJitter pins the retry pacing contract: one sleep per
// re-run, each bounded by the growing full-jitter cap, deterministic for a
// given cell, and cheap to test because the sleep source is injectable.
func TestRetryBackoffFullJitter(t *testing.T) {
	bad, _ := workload.ByName("fft", 16)
	bad.FootprintMB = 0 // broken spec: every attempt fails
	r := Runner{
		Scale:           Scale{WarmupOps: 10, MeasureOps: 10},
		Retries:         3,
		RetryBackoff:    100 * time.Millisecond,
		RetryBackoffMax: 250 * time.Millisecond,
	}
	record := func(dst *[]time.Duration) func(time.Duration) {
		return func(d time.Duration) { *dst = append(*dst, d) }
	}
	var sleeps []time.Duration
	r.Sleep = record(&sleeps)
	if _, _, err := r.RunCell(bad, topology.Default(topology.ProtoBaseline), false); err == nil {
		t.Fatal("RunCell succeeded with a broken spec")
	}
	// 1 + Retries attempts, a sleep between each consecutive pair.
	if len(sleeps) != r.Retries {
		t.Fatalf("%d sleeps recorded, want %d", len(sleeps), r.Retries)
	}
	for i, d := range sleeps {
		max := r.RetryBackoff << uint(i)
		if max > r.RetryBackoffMax {
			max = r.RetryBackoffMax
		}
		if d < 0 || d > max {
			t.Fatalf("sleep %d = %v outside the full-jitter bound [0, %v]", i, d, max)
		}
	}

	// Deterministic: the same cell backs off identically on a re-run (the
	// jitter is seeded from the workload seed, not a global source).
	var again []time.Duration
	r.Sleep = record(&again)
	r.RunCell(bad, topology.Default(topology.ProtoBaseline), false)
	if len(again) != len(sleeps) {
		t.Fatalf("re-run slept %d times, want %d", len(again), len(sleeps))
	}
	for i := range sleeps {
		if sleeps[i] != again[i] {
			t.Fatalf("sleep %d differs across runs: %v vs %v", i, sleeps[i], again[i])
		}
	}

	// A different seed jitters differently (decorrelated cells).
	other := bad
	other.Seed = bad.Seed + 1
	var otherSleeps []time.Duration
	r.Sleep = record(&otherSleeps)
	r.RunCell(other, topology.Default(topology.ProtoBaseline), false)
	same := len(otherSleeps) == len(sleeps)
	if same {
		for i := range sleeps {
			if sleeps[i] != otherSleeps[i] {
				same = false
				break
			}
		}
	}
	if same && len(sleeps) > 1 {
		t.Fatal("different seeds produced identical backoff sequences")
	}

	// Negative base disables sleeping entirely.
	r.RetryBackoff = -1
	r.Sleep = func(time.Duration) { t.Fatal("sleep called with backoff disabled") }
	r.RunCell(bad, topology.Default(topology.ProtoBaseline), false)
}
