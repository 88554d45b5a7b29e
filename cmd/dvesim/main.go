// Command dvesim runs one benchmark under one protocol configuration and
// prints detailed statistics.
//
// Usage:
//
//	dvesim -workload fft -protocol deny -ops 2000000 -warmup 500000
//	dvesim -workload xsbench -protocol dynamic -link-ns 60
//	dvesim -workload fft -protocol deny -trace-events trace.json   # open in Perfetto
//	dvesim -list
package main

import (
	"flag"
	"fmt"
	"os"

	"dve/internal/dve"
	"dve/internal/perf"
	"dve/internal/stats"
	"dve/internal/telemetry"
	"dve/internal/topology"
	"dve/internal/workload"
)

func main() {
	var (
		name    = flag.String("workload", "fft", "benchmark name (see -list)")
		proto   = flag.String("protocol", "deny", "baseline|allow|deny|dynamic|intel-mirror")
		ops     = flag.Uint64("ops", 1_000_000, "memory operations in the region of interest")
		warmup  = flag.Uint64("warmup", 250_000, "warmup operations before the ROI")
		linkNs  = flag.Float64("link-ns", 50, "inter-socket link latency (ns, one way)")
		rdSize  = flag.Int("rd-entries", 2048, "replica directory entries")
		noSpec  = flag.Bool("no-spec", false, "disable speculative replica access")
		coarse  = flag.Bool("coarse", false, "coarse-grain (region) replica directory")
		oracle  = flag.Bool("oracle", false, "oracular replica directory (Fig 9 ceiling)")
		baseCmp = flag.Bool("speedup", false, "also run the baseline and report speedup")
		engineF = flag.String("engine", "auto", "simulation engine: auto|legacy")
		list    = flag.Bool("list", false, "list benchmarks and exit")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a post-GC heap profile to this file on exit")
		traceEv = flag.String("trace-events", "", "write a Chrome trace-event JSON timeline (open in Perfetto) to this file")
	)
	flag.Parse()
	if *rdSize < 1 {
		usageError("-rd-entries must be at least 1, got %d", *rdSize)
	}
	mode, err := dve.ParseEngineMode(*engineF)
	if err != nil {
		usageError("%v", err)
	}

	stopCPU, err := perf.StartCPUProfile(*cpuProf)
	if err != nil {
		fatal(err)
	}
	defer stopCPU()
	defer func() {
		if err := perf.WriteHeapProfile(*memProf); err != nil {
			fatal(err)
		}
	}()

	if *list {
		for _, s := range workload.Suite(16) {
			fmt.Printf("%-16s footprint=%3dMB priv=%.2f sharedRO=%.2f locality=%.2f\n",
				s.Name, s.FootprintMB, s.PrivFrac, s.SharedROFrac, s.Locality)
		}
		return
	}

	p, err := parseProtocol(*proto)
	if err != nil {
		fatal(err)
	}
	spec, ok := workload.ByName(*name, 16)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (use -list)", *name))
	}

	cfg := topology.Default(p)
	cfg.InterSocketNs = *linkNs
	if err := cfg.CheckInterSocket(); err != nil {
		usageError("bad -link-ns: %v", err)
	}
	cfg.ReplicaDirEntries = *rdSize
	cfg.SpeculativeReads = !*noSpec
	cfg.CoarseGrain = *coarse
	cfg.Oracular = *oracle

	rc := dve.RunConfig{Cfg: cfg, WarmupOps: *warmup, MeasureOps: *ops,
		Engine:   mode,
		Classify: p == topology.ProtoBaseline}
	var tracer *telemetry.Tracer
	if *traceEv != "" {
		tracer = telemetry.NewTracer(telemetry.Options{
			TraceEvents: true, FlightRecorderLines: 256,
		})
		rc.Telemetry = tracer
	}
	res, err := dve.Run(spec, rc)
	if err != nil {
		fatal(err)
	}
	printResult(res)
	if tracer != nil {
		// Only the main run is traced: the -speedup baseline below runs on
		// a fresh engine whose clock restarts at zero, which would fold a
		// second timeline onto the same tracks.
		if err := tracer.WriteTraceFile(*traceEv); err != nil {
			fatal(err)
		}
		fmt.Printf("\ntrace: %d events -> %s (dropped %d)\n",
			tracer.Events(), *traceEv, tracer.Dropped())
	}

	if *baseCmp && p != topology.ProtoBaseline {
		bcfg := topology.Default(topology.ProtoBaseline)
		bcfg.InterSocketNs = *linkNs
		base, err := dve.Run(spec, dve.RunConfig{Cfg: bcfg, WarmupOps: *warmup, MeasureOps: *ops,
			Engine: mode})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\nspeedup over baseline NUMA: %.3f\n",
			stats.Speedup(base.Cycles, res.Cycles))
		fmt.Printf("inter-socket traffic vs baseline: %.3f\n",
			float64(res.Counters.LinkBytes)/float64(base.Counters.LinkBytes))
	}
}

func parseProtocol(s string) (topology.Protocol, error) {
	for _, p := range []topology.Protocol{
		topology.ProtoBaseline, topology.ProtoAllow, topology.ProtoDeny,
		topology.ProtoDynamic, topology.ProtoIntelMirror,
	} {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown protocol %q", s)
}

func printResult(res *dve.Result) {
	c := &res.Counters
	fmt.Printf("workload=%s protocol=%s engine=%s\n", res.Workload, res.Protocol, res.Engine)
	fmt.Printf("ROI cycles            %d\n", res.Cycles)
	if res.Counters.EngineEpochs > 0 {
		fmt.Printf("sync epochs           %d (%d barrier stalls)\n",
			res.Counters.EngineEpochs, res.Counters.EngineBarrierStalls)
	}
	fmt.Printf("ops                   %d (reads %d, writes %d)\n", c.Ops, c.Reads, c.Writes)
	fmt.Printf("L1 hit rate           %.4f\n", rate(c.L1Hits, c.L1Hits+c.L1Misses))
	fmt.Printf("LLC hit rate          %.4f  (MPKI %.2f)\n", rate(c.LLCHits, c.LLCHits+c.LLCMisses), c.MPKI())
	fmt.Printf("avg LLC-miss latency  %.1f cycles\n", c.AvgMemLatency())
	fmt.Printf("miss latency          %s\n", c.MissLatency.String())
	fmt.Printf("link traffic          %d msgs, %d bytes\n", c.LinkMsgs, c.LinkBytes)
	fmt.Printf("DRAM                  %d reads, %d writes, row-hit %.3f\n",
		c.DRAMReads, c.DRAMWrites, rate(c.RowHits, c.RowHits+c.RowMisses))
	if res.Protocol == topology.ProtoAllow || res.Protocol == topology.ProtoDeny ||
		res.Protocol == topology.ProtoDynamic {
		fmt.Printf("replica dir           hits %d, misses %d (hit rate %.3f)\n",
			c.ReplicaDirHits, c.ReplicaDirMisses, rate(c.ReplicaDirHits, c.ReplicaDirHits+c.ReplicaDirMisses))
		fmt.Printf("replica reads         %d (%.3f of LLC-miss reads served locally)\n",
			c.ReplicaReads, rate(c.ReplicaReads, c.ReplicaReads+c.HomeReads))
		fmt.Printf("speculative reads     %d issued, %d squashed\n", c.SpecIssued, c.SpecSquashed)
		fmt.Printf("dual writebacks       %d\n", c.DualWritebacks)
	}
	if res.Protocol == topology.ProtoDynamic {
		fmt.Printf("dynamic epochs        allow=%d deny=%d\n", c.EpochsAllow, c.EpochsDeny)
	}
	if mix := c.SharingMix(); mix != [4]float64{} {
		fmt.Printf("sharing classes       priv-read %.3f, read-only %.3f, read/write %.3f, priv-RW %.3f\n",
			mix[0], mix[1], mix[2], mix[3])
	}
	if c.CorrectedErrors+c.DetectedUncorrect > 0 {
		fmt.Printf("reliability           CE=%d recoveries=%d DUE=%d degraded=%d\n",
			c.CorrectedErrors, c.Recoveries, c.DetectedUncorrect, c.DegradedLines)
	}
}

func rate(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// usageError reports a bad flag value the way the flag package reports an
// unknown flag: message, usage, exit status 2.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dvesim: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dvesim:", err)
	os.Exit(1)
}
