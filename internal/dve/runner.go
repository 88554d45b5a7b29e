package dve

import (
	"fmt"

	"dve/internal/coherence"
	"dve/internal/fault"
	"dve/internal/sim"
	"dve/internal/stats"
	"dve/internal/telemetry"
	"dve/internal/topology"
	"dve/internal/workload"
)

// RunConfig controls a simulation run.
type RunConfig struct {
	Cfg topology.Config
	// WarmupOps memory operations (summed over threads) warm caches and
	// metadata before the region of interest; MeasureOps are then simulated
	// in detail (Section VI "Workloads").
	WarmupOps  uint64
	MeasureOps uint64
	// Engine is ignored: every run executes on the one event queue.
	//
	// Deprecated: kept for callers that still set it.
	Engine EngineMode
	// Classify enables Fig 7 sharing-pattern classification (normally only
	// on baseline runs).
	Classify bool
	// FaultFn, when set, is installed on both memory controllers to inject
	// detected-uncorrectable local ECC failures.
	FaultFn func(socket int, a topology.Addr) bool
	// Faults, when set, wires the full dynamic fault model: ReadFails as
	// the controllers' fault predicate and Repair as the recovery path's
	// repair hook, so repair writes actually clear transient faults.
	// FaultFn, when also set, takes precedence for the predicate.
	Faults *fault.Set
	// Prepare, when set, runs after the system (and replica directories)
	// are built but before any thread issues. RAS engines use it to attach
	// journal observers and schedule dynamic fault arrivals or socket-kill
	// events on the simulation engine.
	Prepare func(sys *coherence.System)
	// ReplicaMap, when set, replaces the fixed-function mapping with the
	// flexible RMT: only mapped pages are replicated (Section V-D).
	ReplicaMap coherence.ReplicaMapper
	// Source, when set, replaces the synthetic generator with an external
	// operation source (e.g. a recorded trace, package trace).
	Source OpSource
	// ScrubIntervalCyc enables patrol scrubbing with the given tick period
	// (0 = off); ScrubBatch lines are scrubbed per directory per tick.
	ScrubIntervalCyc uint64
	ScrubBatch       int
	// Telemetry, when set, is wired through the system before any event is
	// scheduled: protocol spans, the flight recorder, and the engine's
	// queue-depth counter all report into it. It only observes — the run's
	// statistics are byte-identical with or without it.
	Telemetry *telemetry.Tracer
}

// OpSource supplies per-thread operation streams; both the synthetic
// workload generator and trace.Source implement it.
type OpSource interface {
	Next(tid int) workload.Op
}

// Result is the outcome of one simulation run.
type Result struct {
	Workload string
	Protocol topology.Protocol
	// Engine is always "single-queue".
	//
	// Deprecated: kept for callers that still read it.
	Engine string
	// Workers is how many goroutines executed the engine: always 1.
	//
	// Deprecated: kept for callers that still read it.
	Workers int
	// Cycles is the region-of-interest duration.
	Cycles uint64
	// Counters are the ROI statistics (link traffic, classes, DRAM, ...).
	Counters stats.Counters
	// InvariantViolations is the post-run coherence audit (SWMR, directory
	// agreement, inclusion); it must be empty for a correct protocol.
	InvariantViolations []string
	// Metrics is the named view of Counters (the telemetry registry
	// snapshot) embedded in result-cache envelopes and sweep reports.
	Metrics telemetry.Snapshot `json:"metrics"`
	// FlightDump holds the flight recorder's recent protocol events when
	// the run ended with invariant violations and a recorder was armed
	// (nil otherwise) — the timeline to read instead of printf archaeology.
	FlightDump []telemetry.FlightEvent `json:"flight_dump,omitempty"`
}

// barrierLatency approximates the synchronization cost of a barrier episode.
const barrierLatency = 100

// runner drives one workload through one system configuration.
type runner struct {
	sys  *coherence.System
	gen  OpSource
	rc   RunConfig
	rds  []*ReplicaDir
	cfg  *topology.Config
	nthr int

	// threads holds one reusable issue record per hardware thread, so the
	// steady-state compute->access->repeat loop allocates nothing per op.
	threads []*thread

	// Op budget (warmup plus ROI, summed over threads) and ROI window.
	budget    uint64
	warmup    uint64
	ops       uint64
	inROI     bool
	roiStart  sim.Cycle
	roiCycles uint64

	// Barrier state: arrivals park here until every thread is in.
	barWaiting int
	barResume  []func()

	// dynamic protocol state.
	dynamic *dynamicCtl
}

// Run simulates a workload under the given configuration and returns the
// region-of-interest results.
func Run(spec workload.Spec, rc RunConfig) (*Result, error) {
	if rc.MeasureOps == 0 {
		return nil, fmt.Errorf("dve: MeasureOps must be positive")
	}
	if spec.Threads != rc.Cfg.TotalCores() {
		spec.Threads = rc.Cfg.TotalCores()
	}
	var gen OpSource
	if rc.Source != nil {
		gen = rc.Source
	} else {
		g, err := workload.NewGenerator(spec)
		if err != nil {
			return nil, err
		}
		gen = g
	}
	cfg := rc.Cfg
	// Auto-scale the dynamic protocol's sampling to the run length: the
	// paper profiles each scheme for 100M instructions every 1B (a 1:10
	// ratio); we sample 1/20 of the ROI per scheme each quarter-ROI epoch.
	if cfg.SampleOps == 0 {
		cfg.SampleOps = rc.MeasureOps / 20
		if cfg.SampleOps == 0 {
			cfg.SampleOps = 1
		}
	}
	if cfg.EpochOps == 0 {
		cfg.EpochOps = rc.MeasureOps / 4
		if cfg.EpochOps == 0 {
			cfg.EpochOps = 1
		}
	}
	if cfg.FootprintHintLines == 0 && spec.FootprintMB > 0 && cfg.LineSizeBytes > 0 {
		cfg.FootprintHintLines = spec.FootprintMB << 20 / cfg.LineSizeBytes
	}
	sys, err := coherence.New(&cfg)
	if err != nil {
		return nil, err
	}
	sys.SetTracer(rc.Telemetry) // before replica dirs: they inherit sys.Trace
	sys.Classify = rc.Classify
	sys.ReplicaMap = rc.ReplicaMap
	faultFn := rc.FaultFn
	if faultFn == nil && rc.Faults != nil {
		faultFn = rc.Faults.ReadFails
	}
	if faultFn != nil {
		for s, mc := range sys.MCs {
			s := s
			f := faultFn
			mc.FaultFn = func(a topology.Addr) bool { return f(s, a) }
		}
	}
	if rc.Faults != nil {
		sys.RepairFn = rc.Faults.Repair
	}
	r := &runner{
		sys:    sys,
		gen:    gen,
		rc:     rc,
		cfg:    &cfg,
		nthr:   cfg.TotalCores(),
		budget: rc.WarmupOps + rc.MeasureOps,
		warmup: rc.WarmupOps,
		inROI:  rc.WarmupOps == 0,
	}
	if cfg.Replicated() {
		mode := Allow
		if cfg.Protocol == topology.ProtoDeny {
			mode = Deny
		}
		for s := 0; s < cfg.Sockets; s++ {
			r.rds = append(r.rds, New(sys, s, mode))
		}
		if cfg.Protocol == topology.ProtoDynamic {
			r.dynamic = newDynamicCtl(r)
		}
	}

	if rc.ScrubIntervalCyc > 0 {
		batch := rc.ScrubBatch
		if batch <= 0 {
			batch = 8
		}
		coherence.NewScrubber(sys, sim.Cycle(rc.ScrubIntervalCyc), batch).Start()
	}
	if rc.Prepare != nil {
		rc.Prepare(sys)
	}
	r.threads = make([]*thread, r.nthr)
	for t := 0; t < r.nthr; t++ {
		tc := &thread{r: r, t: t}
		tc.done = tc.accessDone
		r.threads[t] = tc
		sys.Eng.ScheduleFn(sim.Cycle(t), threadStart, tc, 0)
	}
	sys.Drain()

	res := &Result{
		Workload:            spec.Name,
		Protocol:            cfg.Protocol,
		Engine:              engineLabel,
		Workers:             1,
		Cycles:              r.roiCycles,
		Counters:            sys.Counters(),
		InvariantViolations: sys.CheckInvariants(),
	}
	res.Counters.LinkMsgs = sys.Link.Msgs()
	res.Counters.LinkBytes = sys.Link.Bytes()
	res.Counters.Cycles = r.roiCycles
	for _, mc := range sys.MCs {
		res.Counters.DRAMReads += mc.Reads
		res.Counters.DRAMWrites += mc.Writes
		res.Counters.RowHits += mc.RowHits
		res.Counters.RowMisses += mc.RowMisses
		res.Counters.DRAMBusyCycles += mc.BusyCycles
		// Whole-run (HammeredRows survives the ROI reset): a crossing during
		// warmup is still attack pressure the defenses must answer.
		res.Counters.HammerCrossings += mc.HammeredRows
	}
	if r.dynamic != nil {
		res.Counters.EpochsAllow = r.dynamic.epochsAllow
		res.Counters.EpochsDeny = r.dynamic.epochsDeny
	}
	if rc.Faults != nil {
		// Absolute over the whole run (not reset at ROI start): any silent
		// corruption anywhere voids a campaign's zero-SDC assertion.
		res.Counters.SilentCorruptions = rc.Faults.SilentCorruptions()
	}
	// Flight dump before the metrics snapshot: Dump() advances the
	// recorder's dump counter and both instrumentation-health counters ride
	// in the snapshot. Both stay zero in healthy runs (no lane exhaustion,
	// no violations), so traced and untraced runs remain byte-identical.
	if len(res.InvariantViolations) > 0 && rc.Telemetry != nil {
		if rec := rc.Telemetry.Recorder(); rec != nil {
			res.FlightDump = rec.Dump()
		}
	}
	if rc.Telemetry != nil {
		res.Counters.TraceDropped = rc.Telemetry.Dropped()
		if rec := rc.Telemetry.Recorder(); rec != nil {
			res.Counters.FlightDumps = rec.Dumps()
		}
	}
	res.Metrics = telemetry.CountersSnapshot(&res.Counters)
	return res, nil
}

// thread is the reusable per-thread issue record: the in-flight op rides in
// the record and the done callback is built once, so issuing an op performs
// no per-op allocation.
type thread struct {
	r    *runner
	t    int
	op   workload.Op
	done func()
}

// accessDone completes one memory operation and issues the next.
func (tc *thread) accessDone() {
	tc.r.completed()
	tc.r.issue(tc.t)
}

// threadStart fires a thread's first issue (staggered by thread index).
func threadStart(arg any, _ uint64) {
	tc := arg.(*thread)
	tc.r.issue(tc.t)
}

// issueAccess runs after the op's compute delay and starts the memory access.
func issueAccess(arg any, _ uint64) {
	tc := arg.(*thread)
	tc.r.sys.Access(tc.t, tc.op.Kind == workload.Write, tc.op.Addr, tc.done)
}

// issue drives one thread: compute, access, repeat.
func (r *runner) issue(t int) {
	if r.ops >= r.budget {
		r.finishROI()
		return
	}
	op := r.gen.Next(t)
	if op.Kind == workload.Barrier {
		r.barrier(t)
		return
	}
	tc := r.threads[t]
	tc.op = op
	r.sys.Eng.ScheduleFn(sim.Cycle(op.Compute), issueAccess, tc, 0)
}

// completed advances the op counter and ROI bookkeeping.
func (r *runner) completed() {
	r.ops++
	r.sys.Cnt.Ops++
	if !r.inROI && r.ops >= r.warmup {
		r.startROI()
	}
	if r.dynamic != nil && r.inROI {
		r.dynamic.tick(r.ops)
	}
}

func (r *runner) startROI() {
	r.inROI = true
	r.roiStart = r.sys.Eng.Now()
	// Reset the measured statistics; cache/directory state is kept warm.
	cnt := r.sys.Cnt
	*cnt = stats.Counters{DRAMChannels: cnt.DRAMChannels}
	r.sys.Link.Reset()
	for _, mc := range r.sys.MCs {
		mc.ResetStats()
	}
	if r.dynamic != nil {
		r.dynamic.start(r.ops)
	}
}

func (r *runner) finishROI() {
	if r.inROI && r.roiCycles == 0 {
		r.roiCycles = uint64(r.sys.Eng.Now() - r.roiStart)
	}
}

// barrier parks the thread until all threads arrive; the last arrival
// releases everyone after the barrier latency.
func (r *runner) barrier(t int) {
	r.barWaiting++
	if r.barWaiting < r.nthr {
		r.barResume = append(r.barResume, func() { r.issue(t) })
		return
	}
	resume := r.barResume
	r.barResume = nil
	r.barWaiting = 0
	r.sys.Eng.Schedule(barrierLatency, func() {
		for _, fn := range resume {
			fn()
		}
		r.issue(t)
	})
}

// dynamicCtl implements the sampling-based dynamic protocol (Section V-C5):
// profile allow and deny for a sample window each, then apply the winner for
// the remainder of the epoch.
type dynamicCtl struct {
	r *runner

	phase      int // 0: profiling allow, 1: profiling deny, 2: applying winner
	phaseStart uint64
	cycleStart sim.Cycle

	allowCPO float64 // measured cycles per op
	denyCPO  float64

	epochsAllow, epochsDeny uint64
	switching               bool
}

func newDynamicCtl(r *runner) *dynamicCtl {
	return &dynamicCtl{r: r}
}

func (d *dynamicCtl) start(ops uint64) {
	d.phase = 0
	d.phaseStart = ops
	d.cycleStart = d.r.sys.Eng.Now()
	d.setMode(Allow)
}

func (d *dynamicCtl) setMode(m Mode) {
	if d.switching {
		return
	}
	pending := 0
	for _, rd := range d.r.rds {
		if rd.Mode() != m {
			pending++
		}
	}
	if pending == 0 {
		return
	}
	d.switching = true
	for _, rd := range d.r.rds {
		if rd.Mode() != m {
			rd.SetMode(m, func() {
				pending--
				if pending == 0 {
					d.switching = false
				}
			})
		}
	}
}

// tick advances the controller on every completed op.
func (d *dynamicCtl) tick(ops uint64) {
	cfg := d.r.cfg
	elapsed := ops - d.phaseStart
	cpo := func() float64 {
		if elapsed == 0 {
			return 0
		}
		return float64(d.r.sys.Eng.Now()-d.cycleStart) / float64(elapsed)
	}
	switch d.phase {
	case 0:
		if elapsed >= cfg.SampleOps {
			d.allowCPO = cpo()
			d.phase = 1
			d.phaseStart = ops
			d.cycleStart = d.r.sys.Eng.Now()
			d.setMode(Deny)
		}
	case 1:
		if elapsed >= cfg.SampleOps {
			d.denyCPO = cpo()
			d.phase = 2
			d.phaseStart = ops
			d.cycleStart = d.r.sys.Eng.Now()
			if d.denyCPO <= d.allowCPO {
				d.epochsDeny++
				d.setMode(Deny)
			} else {
				d.epochsAllow++
				d.setMode(Allow)
			}
		}
	case 2:
		if elapsed >= cfg.EpochOps {
			d.phase = 0
			d.phaseStart = ops
			d.cycleStart = d.r.sys.Eng.Now()
			d.setMode(Allow)
		}
	}
}
