package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"

	"dve"
	idve "dve/internal/dve"
	"dve/internal/stats"
	"dve/internal/topology"
	"dve/internal/workload"
)

// timedRun runs one simulation after a GC, measuring its host cost and
// recording it as a span.
func (b *bench) timedRun(name string, fn func() (*idve.Result, error)) (*idve.Result, hostSample, error) {
	runtime.GC()
	m := startMeter()
	res, err := fn()
	hs := m.stop()
	b.sp.add(name, 0, m.t0, m.t0.Add(hs.wall))
	return res, hs, err
}

// suiteSpec returns a suite benchmark with the invocation's seed applied.
func (b *bench) suiteSpec(name string) (workload.Spec, error) {
	spec, ok := workload.ByName(name, 16)
	if !ok {
		return spec, fmt.Errorf("unknown suite workload %q", name)
	}
	if b.c.seed != 0 {
		spec.Seed = b.c.seed
	}
	return spec, nil
}

// runSim measures one single-simulation workload.
func (b *bench) runSim(w simWorkload) error {
	c := b.c
	spec, err := b.suiteSpec(w.bench)
	if err != nil {
		return err
	}
	cfg := topology.Default(w.proto)
	cell := c.workload
	runOps := c.simScale.WarmupOps + c.simScale.MeasureOps
	simulate := func() (*idve.Result, error) {
		return dve.Simulate(spec, cfg, dve.SimOptions{WarmupOps: c.simScale.WarmupOps, MeasureOps: c.simScale.MeasureOps})
	}
	serial := func() (*idve.Result, error) {
		return idve.Run(spec, idve.RunConfig{Cfg: cfg, WarmupOps: c.simScale.WarmupOps,
			MeasureOps: c.simScale.MeasureOps, Engine: idve.EngineSerial})
	}

	// The one untimed run of the process: the serial-engine reference that
	// every default-engine run must reproduce exactly.
	ref, _, err := b.timedRun("run.reference", serial)
	b.v.check(cell, ref, err, false)
	fmt.Fprintf(b.info, "# reference %s fingerprint %s\n", cell, b.v.fp[cell])

	if c.trace {
		return b.simTraced(spec, cfg, cell, runOps, simulate, serial)
	}

	// Set-up: a minimal run (no warmup, one op per thread) is construction,
	// drain and audit with almost no simulation. The runs go back to back
	// with no forced GC, as a process builds one system after another: a
	// GC before each would make every run fault in a cold heap again,
	// which doubled the time and its spread.
	var setups []float64
	for i := 0; i < c.setupReps; i++ {
		t0 := time.Now()
		res, err := dve.Simulate(spec, cfg, dve.SimOptions{MeasureOps: uint64(cfg.TotalCores())})
		t1 := time.Now()
		b.sp.add("setup", 0, t0, t1)
		b.v.check(cell+"/setup", res, err, true)
		setups = append(setups, t1.Sub(t0).Seconds())
	}

	var h hostSamples
	start := time.Now()
	for len(h.walls) < c.minSamples || time.Since(start).Seconds() < c.seconds {
		res, hs, err := b.timedRun("run", simulate)
		b.v.check(cell, res, err, true)
		h.add(hs, float64(runOps))
	}
	b.setHostMetrics(h, setups)
	// A simulation workload's sweep is one run, and each run is one cell.
	b.m.set("cell_p50_s", median(h.walls))
	fmt.Fprintf(b.info, "# samples: %d runs of %d ops, %d set-ups; the median has %d runs beyond it (%d needed to count as measured)\n",
		len(h.walls), runOps, len(setups), tailSamples(0.5, len(h.walls)), minTail)
	return nil
}

// simTraced is the traced run of a simulation workload: timed serial and
// default-engine runs, then default-engine runs under the CPU profiler
// until the window has passed and enough samples are in, then the probes.
func (b *bench) simTraced(spec workload.Spec, cfg topology.Config, cell string, runOps uint64,
	simulate, serial func() (*idve.Result, error)) error {
	start := time.Now()
	res, hs, err := b.timedRun("run.serial", serial)
	b.v.check(cell, res, err, false)
	serialWall := hs.wall.Seconds()

	var plain []float64
	var last *idve.Result
	for i := 0; i < 2; i++ {
		res, hs, err := b.timedRun("run", simulate)
		if b.v.check(cell, res, err, true) {
			last = res
		}
		plain = append(plain, hs.wall.Seconds())
	}
	if last == nil {
		return fmt.Errorf("%s: no default-engine run succeeded", cell)
	}

	profiled, lc, err := b.profile(start, func() (float64, error) {
		res, hs, err := b.timedRun("run.profiled", simulate)
		b.v.check(cell, res, err, true)
		return hs.wall.Seconds(), nil
	})
	if err != nil {
		return err
	}
	b.setLayers(lc, len(profiled))
	b.m.set("trace_overhead", median(profiled)/median(plain))
	b.m.set("sim.worker_speedup", serialWall/median(plain))
	b.setCounts([]*idve.Result{last}, runOps)
	for _, name := range []string{"serve.ready_s", "serve.post_run_s", "serve.queue_wait_p50_s", "serve.cell_p90_s", "experiments.cell_run_p50_s", "results.get_p50_s"} {
		b.m.set(name, 0) // no fabric on a single-simulation workload
	}
	fmt.Fprintf(b.info, "# traced: %d profiled runs, %d profile samples over %.2f CPU s\n",
		len(profiled), lc.samples, float64(lc.total)/1e9)
	return b.runProbes(spec, cfg)
}

// setHostMetrics reports the end-to-end metrics every workload measures
// the same way: medians over the window's samples, peak RSS and set-up.
func (b *bench) setHostMetrics(h hostSamples, setups []float64) {
	b.m.set("sim_ops_per_s", median(h.opsPerS))
	b.m.set("cpu_s_per_mop", median(h.cpuPerMop))
	b.m.set("allocs_per_op", median(h.allocs))
	b.m.set("bytes_per_op", median(h.bytes))
	b.m.set("sweep_s", median(h.walls))
	b.m.set("peak_rss_mb", peakRSSMB())
	b.m.set("setup_s", median(setups))
}

// profile runs sample under the CPU profiler until the window that began
// at start has passed and the profile holds at least profileCPU of CPU
// time, and returns each sample's wall seconds and the layer attribution.
func (b *bench) profile(start time.Time, sample func() (float64, error)) ([]float64, layerCPU, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, layerCPU{}, err
	}
	cpu0 := processCPU()
	var walls []float64
	for len(walls) == 0 || processCPU()-cpu0 < b.c.profileCPU || time.Since(start).Seconds() < b.c.seconds {
		w, err := sample()
		if err != nil {
			pprof.StopCPUProfile()
			return nil, layerCPU{}, err
		}
		walls = append(walls, w)
	}
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		return nil, layerCPU{}, err
	}
	return walls, attributeAll(samples), nil
}

// setLayers reports each layer's share of the profiled CPU time and its
// CPU seconds per profiled sample.
func (b *bench) setLayers(lc layerCPU, units int) {
	for _, l := range layers {
		b.m.set(l+".host_share", lc.share(l))
		b.m.set(l+".host_s", float64(lc.byLayer[l])/1e9/float64(units))
	}
	b.m.set("profile.samples", float64(lc.samples))
}

// setCounts reports the deterministic per-layer counts of a set of runs of
// runOps simulated ops each. Engine counters cover the whole run; the rest
// cover the region of interest.
func (b *bench) setCounts(runs []*idve.Result, runOps uint64) {
	var c stats.Counters
	var partitionedOps, partitions float64
	for _, r := range runs {
		c.Merge(&r.Counters)
		if r.Counters.EngineEpochs > 0 {
			partitionedOps += float64(runOps)
			partitions += float64(r.Counters.EngineEpochs) * 2 // one partition per socket
		}
	}
	f := func(v uint64) float64 { return float64(v) }
	ops := f(c.Ops)
	b.m.set("sim.epochs", f(c.EngineEpochs)/float64(len(runs)))
	b.m.set("sim.ops_per_epoch", ratio(partitionedOps, f(c.EngineEpochs)))
	b.m.set("sim.barrier_stall_ratio", ratio(f(c.EngineBarrierStalls), partitions))
	b.m.set("cache.l1_hit_ratio", ratio(f(c.L1Hits), f(c.L1Hits+c.L1Misses)))
	b.m.set("cache.llc_hit_ratio", ratio(f(c.LLCHits), f(c.LLCHits+c.LLCMisses)))
	b.m.set("dve.rd_hit_ratio", ratio(f(c.ReplicaDirHits), f(c.ReplicaDirHits+c.ReplicaDirMisses)))
	b.m.set("dve.replica_read_ratio", ratio(f(c.ReplicaReads), f(c.ReplicaReads+c.HomeReads)))
	b.m.set("dve.spec_squash_ratio", ratio(f(c.SpecSquashed), f(c.SpecIssued)))
	b.m.set("dve.dual_wb_per_kop", ratio(f(c.DualWritebacks)*1000, ops))
	b.m.set("mem.row_hit_ratio", ratio(f(c.RowHits), f(c.RowHits+c.RowMisses)))
	b.m.set("mem.dram_reads_per_op", ratio(f(c.DRAMReads), ops))
	b.m.set("noc.link_msgs_per_op", ratio(f(c.LinkMsgs), ops))
	b.m.set("noc.link_bytes_per_op", ratio(f(c.LinkBytes), ops))
}
