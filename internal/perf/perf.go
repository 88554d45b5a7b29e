// Package perf records the simulator's performance trajectory. A Report is
// the BENCH_*.json document dvebench emits: per-run wall time, simulated
// throughput, and heap-allocation rates, so every PR can compare its hot
// path against the committed baseline (see DESIGN.md "Performance
// engineering").
//
// Wall-clock access goes through stats.Stopwatch (the one sanctioned
// wall-clock helper); nothing simulation-visible depends on a measurement.
package perf

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"dve/internal/stats"
)

// Run is one measured simulation: what ran, how much simulated work it did,
// and what it cost on the host.
type Run struct {
	Workload string `json:"workload"`
	Protocol string `json:"protocol"`
	// Ops is the number of simulated memory operations (warmup + ROI);
	// Cycles is the simulated region-of-interest length. Both are
	// deterministic, so a baseline check demands them exactly.
	Ops    uint64 `json:"ops"`
	Cycles uint64 `json:"cycles"`
	// Host-side cost: wall time, simulated ops per wall-clock second, and
	// heap allocation rates from runtime.MemStats deltas.
	WallMS      float64 `json:"wall_ms"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

// Report is a BENCH_*.json document: the environment it was measured in
// plus the measured runs.
// Schema history:
//
//	1 — initial: environment + per-run wall/throughput/alloc measurements.
//	2 — runs carry the executed engine family and the report records
//	    GOMAXPROCS. Runs written before the engine lost its worker
//	    goroutines also carry a "workers" count; readers ignore it.
//	3 — runs lose the engine family: one engine executes every run.
//	    Readers ignore an "engine" key in older reports.
type Report struct {
	Schema    int    `json:"schema"`
	Scale     string `json:"scale"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// GOMAXPROCS is the scheduler width the measurements ran under. The
	// simulation itself uses one goroutine; the rest of the width goes to
	// the garbage collector's background workers.
	GOMAXPROCS int   `json:"gomaxprocs"`
	Runs       []Run `json:"runs"`
}

// NewReport returns an empty report stamped with the build environment.
func NewReport(scale string) *Report {
	return &Report{
		Schema:     3,
		Scale:      scale,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// Measure runs one simulation under the stopwatch and returns its Run
// record. fn reports the simulated work it performed (ops, ROI cycles).
// Allocation rates are runtime.MemStats deltas across the call: GC noise
// from other goroutines would pollute them, so measure serially.
func Measure(workload, protocol string, fn func() (ops, cycles uint64)) Run {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sw := stats.StartWallClock()
	ops, cycles := fn()
	wall := sw.Elapsed()
	runtime.ReadMemStats(&after)

	r := Run{Workload: workload, Protocol: protocol, Ops: ops, Cycles: cycles}
	r.WallMS = float64(wall) / float64(time.Millisecond)
	if s := wall.Seconds(); s > 0 {
		r.OpsPerSec = float64(ops) / s
	}
	if ops > 0 {
		r.AllocsPerOp = float64(after.Mallocs-before.Mallocs) / float64(ops)
		r.BytesPerOp = float64(after.TotalAlloc-before.TotalAlloc) / float64(ops)
	}
	return r
}

// Add appends a measured run to the report.
func (rep *Report) Add(r Run) { rep.Runs = append(rep.Runs, r) }

// WriteFile writes the report as indented JSON, newline-terminated.
func (rep *Report) WriteFile(path string) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fmt.Errorf("perf: encoding report: %w", err)
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// StartCPUProfile begins a CPU profile into path and returns the function
// that stops it. An empty path is a no-op (stop is still non-nil), so CLIs
// can call it unconditionally with their flag value.
func StartCPUProfile(path string) (stop func(), err error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("perf: cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("perf: cpu profile: %w", err)
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// WriteHeapProfile writes a post-GC heap profile to path; an empty path is
// a no-op.
func WriteHeapProfile(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("perf: heap profile: %w", err)
	}
	defer f.Close()
	runtime.GC() // report live objects, not transient garbage
	if err := pprof.WriteHeapProfile(f); err != nil {
		return fmt.Errorf("perf: heap profile: %w", err)
	}
	return nil
}
