package main

import (
	"fmt"

	"dve/internal/cache"
	"dve/internal/mem"
	"dve/internal/noc"
	"dve/internal/sim"
	"dve/internal/topology"
	"dve/internal/workload"
)

// probeSink keeps probed results alive so the compiler cannot drop calls.
var probeSink uint64

// probeBatch is how many events a probe schedules before running the
// engine dry: one per hardware thread, as the simulator keeps in flight.
const probeBatch = 16

func noopHandler(any, uint64) {}

// runProbes times public entry points of single layers on the workload's
// own operation stream and reports ns and heap allocations per call.
func (b *bench) runProbes(spec workload.Spec, cfg topology.Config) error {
	n := b.c.probeOps
	threads := cfg.TotalCores()
	spec.Threads = threads
	amap := topology.NewAddrMap(&cfg)

	gen, err := workload.NewGenerator(spec)
	if err != nil {
		return err
	}
	b.probe("workload.next", n, func() {
		for i := 0; i < n; i++ {
			probeSink += uint64(gen.Next(i % threads).Addr)
		}
	})

	// The stream the remaining probes replay: the memory ops of a fresh
	// generator with the same seed.
	gen, err = workload.NewGenerator(spec)
	if err != nil {
		return err
	}
	addrs := make([]topology.Addr, 0, n)
	lines := make([]topology.Line, 0, n)
	delays := make([]sim.Cycle, 0, n)
	for i := 0; len(addrs) < n; i++ {
		op := gen.Next(i % threads)
		if op.Kind == workload.Barrier {
			continue
		}
		addrs = append(addrs, op.Addr)
		lines = append(lines, amap.LineOf(op.Addr))
		delays = append(delays, sim.Cycle(op.Compute))
	}

	arrays := []struct {
		name  string // metric name prefix
		calls int
		build func() *cache.Cache
	}{
		{"cache.sa.l1_", n, func() *cache.Cache { return cache.New(cfg.L1SizeBytes, cfg.L1Ways, cfg.LineSizeBytes) }},
		{"cache.sa.llc_", n, func() *cache.Cache { return cache.New(cfg.LLCSizeBytes, cfg.LLCWays, cfg.LineSizeBytes) }},
		// A fully associative lookup scans every entry, so fewer calls
		// give a comparable probe time.
		{"cache.fa.", n / 10, func() *cache.Cache { return cache.NewFullyAssoc(cfg.ReplicaDirEntries, cfg.LineSizeBytes) }},
	}
	for _, a := range arrays {
		c := a.build()
		calls := a.calls
		b.probe(a.name+"insert", calls, func() {
			for _, l := range lines[:calls] {
				c.Insert(l, cache.Shared)
			}
		})
		b.probe(a.name+"lookup", calls, func() {
			for _, l := range lines[:calls] {
				if c.Lookup(l) != nil {
					probeSink++
				}
			}
		})
	}

	eng := sim.NewEngine()
	b.probe("sim.schedule_run", n, func() {
		for i := 0; i < n; i += probeBatch {
			for _, d := range delays[i:min(i+probeBatch, n)] {
				eng.ScheduleFn(d, noopHandler, nil, 0)
			}
			eng.Run()
		}
	})

	eng = sim.NewEngine()
	mc := mem.NewController(eng, &cfg, amap, 0)
	readDone := func(bool) { probeSink++ }
	b.probe("mem.read", n, func() {
		for i := 0; i < n; i += probeBatch {
			for _, a := range addrs[i:min(i+probeBatch, n)] {
				mc.Read(a, readDone)
			}
			eng.Run()
		}
	})

	eng = sim.NewEngine()
	link, err := noc.NewLink([2]*sim.Engine{eng, eng}, nil, sim.Cycle(cfg.InterSocketCyc()))
	if err != nil {
		return fmt.Errorf("probe link: %w", err)
	}
	b.probe("noc.send", n, func() {
		for i := 0; i < n; i += probeBatch {
			for _, a := range addrs[i:min(i+probeBatch, n)] {
				link.SendFn(amap.HomeSocket(a), cfg.LineSizeBytes, noopHandler, nil, 0)
			}
			eng.Run()
		}
	})
	return nil
}

// probe times body, which makes calls calls into one layer, and records
// ns and allocations per call.
func (b *bench) probe(name string, calls int, body func()) {
	m := startMeter()
	body()
	hs := m.stop()
	b.sp.add("probe."+name, 0, m.t0, m.t0.Add(hs.wall))
	b.m.set(name+"_ns", float64(hs.wall.Nanoseconds())/float64(calls))
	b.m.set(name+"_allocs", float64(hs.allocs)/float64(calls))
}
