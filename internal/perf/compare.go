package perf

// Regression checking: dvebench -check compares a fresh bench run against
// the committed BENCH_*.json baseline so a PR that slows the hot path or
// adds per-op allocations fails CI instead of landing silently. Throughput
// is host-dependent (CI machines differ from the one that wrote the
// baseline), so its tolerance is deliberately loose and configurable;
// allocations per op are compared tightly. Simulated ops and ROI cycles are
// pure functions of the inputs, so any difference from the baseline is a
// behaviour change and is reported whatever the tolerance.

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// LoadReport reads a BENCH_*.json document written by Report.WriteFile.
func LoadReport(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("perf: reading baseline: %w", err)
	}
	var rep Report
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("perf: decoding %s: %w", path, err)
	}
	if rep.Schema < 1 || rep.Schema > 2 {
		return nil, fmt.Errorf("perf: %s has unknown schema %d", path, rep.Schema)
	}
	return &rep, nil
}

// Tolerance bounds how much worse a fresh run may be than the baseline
// before Compare reports a regression. The zero value selects the defaults.
type Tolerance struct {
	// MinOpsRatio is the lowest acceptable fresh/baseline throughput ratio.
	// 0 means 0.5: wall-clock numbers move with the host, so only a halving
	// trips the default guard. Negative disables the throughput check.
	MinOpsRatio float64
	// MaxAllocsGrowth is the acceptable fractional growth in allocs/op
	// (fresh ≤ baseline·(1+growth) + AllocsSlack). 0 means 0.25.
	// Negative disables the allocation check.
	MaxAllocsGrowth float64
	// AllocsSlack is the absolute allocs/op headroom added on top of the
	// fractional bound, so near-zero baselines do not trip on noise.
	// 0 means 1.0.
	AllocsSlack float64
}

func (t Tolerance) minOps() float64 {
	if t.MinOpsRatio == 0 {
		return 0.5
	}
	return t.MinOpsRatio
}

func (t Tolerance) allocsLimit(baseline float64) float64 {
	growth := t.MaxAllocsGrowth
	if growth == 0 {
		growth = 0.25
	}
	slack := t.AllocsSlack
	if slack == 0 {
		slack = 1.0
	}
	return baseline*(1+growth) + slack
}

// Regression is one metric of one run that fell outside tolerance.
type Regression struct {
	Workload string
	Protocol string
	Engine   string
	Metric   string // "cycles" | "ops" | "ops_per_sec" | "allocs_per_op" | "missing"
	Baseline float64
	Fresh    float64
	Limit    float64
}

func (r Regression) String() string {
	id := fmt.Sprintf("%s/%s", r.Workload, r.Protocol)
	if r.Engine != "" {
		id += fmt.Sprintf(" (%s)", r.Engine)
	}
	switch r.Metric {
	case "missing":
		return fmt.Sprintf("%s: present in baseline but not in the fresh run", id)
	case "cycles", "ops":
		return fmt.Sprintf("%s: %s %.0f vs baseline %.0f (must match exactly)",
			id, r.Metric, r.Fresh, r.Baseline)
	}
	return fmt.Sprintf("%s: %s %.3g vs baseline %.3g (limit %.3g)",
		id, r.Metric, r.Fresh, r.Baseline, r.Limit)
}

// runKey identifies a run across reports.
func runKey(r Run) string {
	return fmt.Sprintf("%s|%s|%s", r.Workload, r.Protocol, r.Engine)
}

// Compare checks every baseline run against its counterpart in fresh and
// returns the regressions in deterministic order (empty = within
// tolerance). Cycles and ops must match the baseline exactly. Runs present
// only in fresh are ignored — new coverage is not a regression; runs
// missing from fresh are reported, so a bench matrix cannot silently shrink
// past the check.
func Compare(baseline, fresh *Report, tol Tolerance) []Regression {
	byKey := make(map[string]Run, len(fresh.Runs))
	for _, r := range fresh.Runs {
		byKey[runKey(r)] = r
	}
	var regs []Regression
	for _, base := range baseline.Runs {
		f, ok := byKey[runKey(base)]
		reg := func(metric string, was, now, limit float64) {
			regs = append(regs, Regression{
				Workload: base.Workload, Protocol: base.Protocol, Engine: base.Engine,
				Metric: metric, Baseline: was, Fresh: now, Limit: limit,
			})
		}
		if !ok {
			reg("missing", 0, 0, 0)
			continue
		}
		if f.Cycles != base.Cycles {
			reg("cycles", float64(base.Cycles), float64(f.Cycles), float64(base.Cycles))
		}
		if f.Ops != base.Ops {
			reg("ops", float64(base.Ops), float64(f.Ops), float64(base.Ops))
		}
		if minRatio := tol.minOps(); minRatio > 0 && base.OpsPerSec > 0 {
			if limit := base.OpsPerSec * minRatio; f.OpsPerSec < limit {
				reg("ops_per_sec", base.OpsPerSec, f.OpsPerSec, limit)
			}
		}
		if tol.MaxAllocsGrowth >= 0 {
			if limit := tol.allocsLimit(base.AllocsPerOp); f.AllocsPerOp > limit {
				reg("allocs_per_op", base.AllocsPerOp, f.AllocsPerOp, limit)
			}
		}
	}
	sort.Slice(regs, func(i, j int) bool {
		a, b := regs[i], regs[j]
		if a.Workload != b.Workload {
			return a.Workload < b.Workload
		}
		if a.Protocol != b.Protocol {
			return a.Protocol < b.Protocol
		}
		if a.Engine != b.Engine {
			return a.Engine < b.Engine
		}
		return a.Metric < b.Metric
	})
	return regs
}

// FormatRegressions renders Compare output for a CLI: one line per
// regression, or a one-line all-clear naming how many runs were checked.
func FormatRegressions(regs []Regression, checked int) string {
	if len(regs) == 0 {
		return fmt.Sprintf("bench check: %d baseline runs within tolerance", checked)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "bench check: %d regression(s) against baseline:\n", len(regs))
	for _, r := range regs {
		sb.WriteString("  " + r.String() + "\n")
	}
	return strings.TrimRight(sb.String(), "\n")
}
