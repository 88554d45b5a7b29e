package perf

import (
	"path/filepath"
	"strings"
	"testing"
)

func benchRun(w, p string, ops, allocs float64) Run {
	return Run{
		Workload: w, Protocol: p,
		Ops: 170_000, Cycles: 997_667, OpsPerSec: ops, AllocsPerOp: allocs,
	}
}

func TestCompareWithinTolerance(t *testing.T) {
	base := &Report{Schema: 2, Runs: []Run{
		benchRun("fft", "baseline", 1e6, 3.0),
		benchRun("fft", "deny", 5e5, 4.0),
	}}
	fresh := &Report{Schema: 2, Runs: []Run{
		benchRun("fft", "baseline", 0.9e6, 3.1), // 10% slower, +0.1 allocs: fine
		benchRun("fft", "deny", 5.5e5, 4.0),
		benchRun("fft", "dynamic", 1, 1), // extra coverage is not a regression
	}}
	if regs := Compare(base, fresh, Tolerance{}); len(regs) != 0 {
		t.Fatalf("expected no regressions, got %v", regs)
	}
}

func TestCompareCatchesRegressions(t *testing.T) {
	base := &Report{Schema: 2, Runs: []Run{
		benchRun("fft", "baseline", 1e6, 3.0),
		benchRun("lbm", "deny", 5e5, 2.0),
		benchRun("mcf", "deny", 4e5, 1.0),
	}}
	fresh := &Report{Schema: 2, Runs: []Run{
		benchRun("fft", "baseline", 0.4e6, 3.0), // under the 0.5× default
		benchRun("lbm", "deny", 5e5, 4.0),       // > 2.0·1.25 + 1
		// mcf/deny missing entirely.
	}}
	regs := Compare(base, fresh, Tolerance{})
	if len(regs) != 3 {
		t.Fatalf("expected 3 regressions, got %d: %v", len(regs), regs)
	}
	// Deterministic order: workload, protocol, metric.
	if regs[0].Metric != "ops_per_sec" || regs[0].Workload != "fft" {
		t.Fatalf("regs[0] = %+v", regs[0])
	}
	if regs[1].Metric != "allocs_per_op" || regs[1].Workload != "lbm" {
		t.Fatalf("regs[1] = %+v", regs[1])
	}
	if regs[2].Metric != "missing" || regs[2].Workload != "mcf" {
		t.Fatalf("regs[2] = %+v", regs[2])
	}
	out := FormatRegressions(regs, len(base.Runs))
	if !strings.Contains(out, "3 regression(s)") || !strings.Contains(out, "ops_per_sec") {
		t.Fatalf("unexpected format output:\n%s", out)
	}
}

// TestCompareCatchesCycleDrift: ROI cycles are deterministic, so a fresh
// run one cycle away from the baseline is a behaviour change, and no
// tolerance setting hides it.
func TestCompareCatchesCycleDrift(t *testing.T) {
	base := &Report{Schema: 2, Runs: []Run{benchRun("fft", "baseline", 1e6, 3.0)}}
	drift := benchRun("fft", "baseline", 1e6, 3.0)
	drift.Cycles++
	fresh := &Report{Schema: 2, Runs: []Run{drift}}
	regs := Compare(base, fresh, Tolerance{MinOpsRatio: -1, MaxAllocsGrowth: -1})
	if len(regs) != 1 || regs[0].Metric != "cycles" {
		t.Fatalf("regressions = %v, want one cycles regression", regs)
	}
	if got := regs[0].String(); !strings.Contains(got, "cycles 997668 vs baseline 997667") {
		t.Fatalf("regression renders as %q", got)
	}
}

// TestCompareCatchesOpsDrift: the simulated op count is an input of the
// bench matrix; a fresh run that simulated a different number of ops is not
// comparable and is reported.
func TestCompareCatchesOpsDrift(t *testing.T) {
	base := &Report{Schema: 2, Runs: []Run{benchRun("fft", "deny", 5e5, 4.0)}}
	drift := benchRun("fft", "deny", 5e5, 4.0)
	drift.Ops--
	fresh := &Report{Schema: 2, Runs: []Run{drift}}
	regs := Compare(base, fresh, Tolerance{})
	if len(regs) != 1 || regs[0].Metric != "ops" {
		t.Fatalf("regressions = %v, want one ops regression", regs)
	}
}

func TestCompareDisabledChecks(t *testing.T) {
	base := &Report{Schema: 2, Runs: []Run{benchRun("fft", "baseline", 1e6, 3.0)}}
	fresh := &Report{Schema: 2, Runs: []Run{benchRun("fft", "baseline", 1, 100)}}
	regs := Compare(base, fresh, Tolerance{MinOpsRatio: -1, MaxAllocsGrowth: -1})
	if len(regs) != 0 {
		t.Fatalf("disabled tolerances still reported %v", regs)
	}
}

func TestLoadReportRoundTrip(t *testing.T) {
	rep := NewReport("quick")
	rep.Add(benchRun("fft", "baseline", 1e6, 3.0))
	path := filepath.Join(t.TempDir(), "BENCH_quick.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != rep.Schema || len(got.Runs) != 1 || got.Runs[0].Workload != "fft" {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if _, err := LoadReport(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("expected error for missing baseline")
	}
}
