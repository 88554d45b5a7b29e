package experiments

import (
	"fmt"
	"runtime"
	"strings"

	"dve/internal/dve"
	"dve/internal/perf"
	"dve/internal/results"
	"dve/internal/topology"
	"dve/internal/workload"
)

// benchMatrix is the fixed (workload, protocol) set the bench experiment
// measures: a baseline run (no replica machinery), the deny protocol on two
// contrasting sharing mixes, and the dynamic protocol (which exercises both
// families plus the switch path). Small enough for a CI smoke job, varied
// enough to notice a regression in any hot subsystem.
var benchMatrix = []struct {
	workload string
	protocol topology.Protocol
}{
	{"fft", topology.ProtoBaseline},
	{"fft", topology.ProtoDeny},
	{"graph500", topology.ProtoDeny},
	{"canneal", topology.ProtoDynamic},
}

// benchKey addresses one bench measurement. Unlike simulation cells, a
// bench run measures the *simulator* (wall time, allocations), so the Go
// toolchain and platform are part of what the numbers are a function of and
// join the key; a cached entry replays the cold run's measurements, which
// keeps a repeated bench report byte-identical.
type benchKey struct {
	Workload   workload.Spec   `json:"workload"`
	Config     topology.Config `json:"config"`
	WarmupOps  uint64          `json:"warmup_ops"`
	MeasureOps uint64          `json:"measure_ops"`
	Scale      string          `json:"scale"`
	GoVersion  string          `json:"go_version"`
	GOOS       string          `json:"goos"`
	GOARCH     string          `json:"goarch"`
	// GOMAXPROCS joins the key because wall time still depends on how many
	// CPUs the host scheduler offers: the garbage collector's background
	// workers run beside the single simulation goroutine.
	GOMAXPROCS int `json:"gomaxprocs"`
}

// Bench measures the simulator's own performance: each matrix cell runs
// serially under perf.Measure (parallel runs would pollute each other's
// wall time and MemStats deltas), and the measurements land
// in a perf.Report ready to be written as BENCH_<scale>.json, one row per
// cell. With a cache configured, previously measured cells are replayed
// from disk instead of re-run.
func (r Runner) Bench(scaleName string) (*perf.Report, error) {
	rep := perf.NewReport(scaleName)
	for _, c := range benchMatrix {
		spec, ok := workload.ByName(c.workload, 16)
		if !ok {
			return nil, fmt.Errorf("bench: unknown workload %q", c.workload)
		}
		run, err := r.benchOne(scaleName, spec, topology.Default(c.protocol))
		if err != nil {
			return nil, fmt.Errorf("bench %s/%s: %w", c.workload, c.protocol, err)
		}
		rep.Add(run)
	}
	return rep, nil
}

// benchOne measures (or replays from cache) one workload/protocol cell.
func (r Runner) benchOne(scaleName string, spec workload.Spec, cfg topology.Config) (perf.Run, error) {
	var key results.Key
	if r.Cache != nil {
		k, err := results.HashKey("bench", benchKey{
			Workload:   spec,
			Config:     cfg,
			WarmupOps:  r.Scale.WarmupOps,
			MeasureOps: r.Scale.MeasureOps,
			Scale:      scaleName,
			GoVersion:  runtime.Version(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			GOMAXPROCS: runtime.GOMAXPROCS(0),
		})
		if err != nil {
			return perf.Run{}, err
		}
		key = k
		var cached perf.Run
		if r.Cache.Get(key, &cached) {
			return cached, nil
		}
	}
	var err error
	run := perf.Measure(spec.Name, cfg.Protocol.String(), func() (uint64, uint64) {
		var res *dve.Result
		res, err = r.runOne(spec, cfg, false)
		if err != nil {
			return 0, 0
		}
		return r.Scale.WarmupOps + r.Scale.MeasureOps, res.Cycles
	})
	if err != nil {
		return perf.Run{}, err
	}
	if r.Cache != nil {
		if err := r.Cache.Put(key, run); err != nil {
			return perf.Run{}, err
		}
	}
	return run, nil
}

// FormatBench renders a perf report as a human-readable table.
func FormatBench(rep *perf.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Simulator performance (%s scale, %s %s/%s, GOMAXPROCS=%d)\n",
		rep.Scale, rep.GoVersion, rep.GOOS, rep.GOARCH, rep.GOMAXPROCS)
	fmt.Fprintf(&b, "%-12s %-14s %10s %12s %12s %12s\n",
		"workload", "protocol", "wall ms", "kops/s", "allocs/op", "B/op")
	for _, r := range rep.Runs {
		fmt.Fprintf(&b, "%-12s %-14s %10.1f %12.0f %12.2f %12.1f\n",
			r.Workload, r.Protocol, r.WallMS, r.OpsPerSec/1e3, r.AllocsPerOp, r.BytesPerOp)
	}
	return b.String()
}
