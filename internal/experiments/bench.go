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
	// Engine is the *requested* mode ("serial", "parallel", ...), not the
	// executed family: serial and parallel produce identical simulation
	// results but different wall times, and wall time is what a bench
	// entry caches.
	Engine string `json:"engine"`
	// GOMAXPROCS joins the key because the parallel engine's wall time is
	// a function of how many CPUs the host scheduler offers.
	GOMAXPROCS int `json:"gomaxprocs"`
}

// BenchModes resolves a dvebench -engine flag value into the engine modes
// one bench report measures. "both" (the default) runs every cell under the
// serial and the parallel partitioned engine back-to-back, so the report
// itself shows what the worker goroutines cost or save on this host.
func BenchModes(name string) ([]dve.EngineMode, error) {
	if name == "" || name == "both" {
		return []dve.EngineMode{dve.EngineSerial, dve.EngineParallel}, nil
	}
	m, err := dve.ParseEngineMode(name)
	if err != nil {
		return nil, err
	}
	return []dve.EngineMode{m}, nil
}

// Bench measures the simulator's own performance: each matrix cell runs
// serially under perf.Measure (parallel runs would pollute each other's
// wall time and MemStats deltas) and the measurements land in a perf.Report
// ready to be written as BENCH_<scale>.json. Each cell is measured once per
// requested engine mode (nil means Runner.Engine alone), so one report can
// hold the serial/parallel comparison; a cell whose modes all fall back to
// legacy is measured once. With a cache configured, previously
// measured cells are replayed from disk instead of re-run.
func (r Runner) Bench(scaleName string, modes ...dve.EngineMode) (*perf.Report, error) {
	if len(modes) == 0 {
		modes = []dve.EngineMode{r.Engine}
	}
	rep := perf.NewReport(scaleName)
	for _, c := range benchMatrix {
		spec, ok := workload.ByName(c.workload, 16)
		if !ok {
			return nil, fmt.Errorf("bench: unknown workload %q", c.workload)
		}
		cfg := topology.Default(c.protocol)
		ranLegacy := false
		for _, mode := range modes {
			rm := r
			rm.Engine = mode
			// Every mode of a cell that falls back to legacy executes
			// identically (one goroutine, one queue): measure it once, or
			// the report holds two rows with one identity.
			if rc := rm.cellConfig(cfg, false); rc.ExecutedEngine() == "legacy" {
				if ranLegacy {
					continue
				}
				ranLegacy = true
			}
			run, err := rm.benchOne(scaleName, spec, cfg, mode)
			if err != nil {
				return nil, fmt.Errorf("bench %s/%s/%s: %w", c.workload, c.protocol, mode, err)
			}
			rep.Add(run)
		}
	}
	return rep, nil
}

// benchOne measures (or replays from cache) one workload/protocol cell
// under one engine mode.
func (r Runner) benchOne(scaleName string, spec workload.Spec, cfg topology.Config, mode dve.EngineMode) (perf.Run, error) {
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
			Engine:     mode.String(),
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
	var res *dve.Result
	var err error
	run := perf.Measure(spec.Name, cfg.Protocol.String(), func() (uint64, uint64) {
		res, err = r.runOne(spec, cfg, false)
		if err != nil {
			return 0, 0
		}
		return r.Scale.WarmupOps + r.Scale.MeasureOps, res.Cycles
	})
	if err != nil {
		return perf.Run{}, err
	}
	run.Engine = res.Engine
	run.Workers = res.Workers
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
	fmt.Fprintf(&b, "%-12s %-14s %-14s %10s %12s %12s %12s\n",
		"workload", "protocol", "engine", "wall ms", "kops/s", "allocs/op", "B/op")
	for _, r := range rep.Runs {
		eng := r.Engine
		if eng == "" {
			eng = "legacy" // pre-schema-2 cached entries
		}
		if r.Workers > 1 {
			eng = fmt.Sprintf("%s/%dw", eng, r.Workers)
		}
		fmt.Fprintf(&b, "%-12s %-14s %-14s %10.1f %12.0f %12.2f %12.1f\n",
			r.Workload, r.Protocol, eng, r.WallMS, r.OpsPerSec/1e3, r.AllocsPerOp, r.BytesPerOp)
	}
	return b.String()
}
