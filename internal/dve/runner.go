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
	// Engine selects the execution engine (EngineAuto partitions per socket
	// when the configuration allows it; see EngineMode).
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
	// Engine records the engine that actually executed the run: "legacy"
	// (single global event queue) or "partitioned" (per-socket queues with
	// link-latency lookahead). Legacy orders cross-socket ties differently
	// and is a distinct statistics universe.
	Engine string
	// Workers is how many goroutines executed the engine: always 1, since
	// both engines run on the caller's goroutine.
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

// group is the per-partition slice of the runner: the threads of one
// socket, their op budget and ROI window, and the local half of the
// barrier protocol. The legacy engine runs one group holding every thread
// (reproducing the original single-queue behavior exactly); the
// partitioned engine runs one group per socket, each touching only its own
// partition's engine and counter shard.
type group struct {
	r         *runner
	id        int // socket index (0 in legacy single-group mode)
	eng       *sim.Engine
	cnt       *stats.Counters
	nthr      int // threads in this group
	budget    uint64
	warmup    uint64
	ops       uint64
	inROI     bool
	roiStart  sim.Cycle
	roiCycles uint64

	// Local barrier state: arrivals park here until every thread of the
	// group is in, then the group reports to the global coordinator.
	barWaiting int
	barResume  []func()
}

// runner drives one workload through one system configuration.
type runner struct {
	sys    *coherence.System
	gen    OpSource
	rc     RunConfig
	rds    []*ReplicaDir
	cfg    *topology.Config
	nthr   int
	groups []*group

	// threads holds one reusable issue record per hardware thread, so the
	// steady-state compute->access->repeat loop allocates nothing per op.
	threads []*thread

	// barGroups counts groups fully arrived at the current barrier; the
	// coordinator (group 0's partition) releases everyone when all are in.
	barGroups int

	// dynamic protocol state (legacy engine only).
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
	partitioned := resolveEngine(rc.Engine, &rc, &cfg)
	var (
		sys *coherence.System
		pe  *sim.ParallelEngine
		err error
	)
	if partitioned {
		// The lookahead window is the link's minimum sender-to-delivery
		// distance: one serialization cycle plus the propagation latency.
		window := sim.Cycle(cfg.InterSocketCyc()) + 1
		pe = sim.NewParallelEngine(cfg.Sockets, window)
		sys, err = coherence.NewPartitioned(&cfg, pe)
	} else {
		sys, err = coherence.New(&cfg)
	}
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
		sys:  sys,
		gen:  gen,
		rc:   rc,
		cfg:  &cfg,
		nthr: cfg.TotalCores(),
	}
	r.buildGroups(partitioned)
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
		tc := &thread{r: r, t: t, g: r.groupOf(t)}
		tc.done = tc.accessDone
		r.threads[t] = tc
		tc.g.eng.ScheduleFn(sim.Cycle(t), threadStart, tc, 0)
	}
	sys.Drain()

	engine := "legacy"
	if partitioned {
		engine = "partitioned"
	}
	var roiCycles uint64
	for _, g := range r.groups {
		if g.roiCycles > roiCycles {
			roiCycles = g.roiCycles
		}
	}
	res := &Result{
		Workload:            spec.Name,
		Protocol:            cfg.Protocol,
		Engine:              engine,
		Workers:             1,
		Cycles:              roiCycles,
		Counters:            sys.Counters(),
		InvariantViolations: sys.CheckInvariants(),
	}
	res.Counters.LinkMsgs = sys.Link.Msgs()
	res.Counters.LinkBytes = sys.Link.Bytes()
	res.Counters.Cycles = roiCycles
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
	if pe != nil {
		// Whole-run epoch accounting (deterministic: both are pure
		// functions of the event trace).
		res.Counters.EngineEpochs = pe.Epochs()
		res.Counters.EngineBarrierStalls = pe.BarrierStalls()
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

// buildGroups creates the execution groups: one global group on the legacy
// engine, or one per socket on the partitioned engine, with the op budget
// and warmup split evenly (remainders to group 0 so totals are preserved).
func (r *runner) buildGroups(partitioned bool) {
	total := r.rc.WarmupOps + r.rc.MeasureOps
	if !partitioned {
		g := &group{
			r: r, id: 0,
			eng:    r.sys.Engs[0],
			cnt:    r.sys.Cnts[0],
			nthr:   r.nthr,
			budget: total,
			warmup: r.rc.WarmupOps,
		}
		g.inROI = g.warmup == 0
		r.groups = []*group{g}
		return
	}
	n := r.cfg.Sockets
	for s := 0; s < n; s++ {
		g := &group{
			r: r, id: s,
			eng:    r.sys.Engs[s],
			cnt:    r.sys.Cnts[s],
			nthr:   r.cfg.CoresPerSocket,
			budget: total / uint64(n),
			warmup: r.rc.WarmupOps / uint64(n),
		}
		if s == 0 {
			g.budget += total % uint64(n)
			g.warmup += r.rc.WarmupOps % uint64(n)
		}
		g.inROI = g.warmup == 0
		r.groups = append(r.groups, g)
	}
}

// groupOf returns the execution group driving the given core.
func (r *runner) groupOf(core int) *group {
	if len(r.groups) == 1 {
		return r.groups[0]
	}
	return r.groups[r.sys.SocketOf(core)]
}

// thread is the reusable per-thread issue record: the in-flight op rides in
// the record and the done callback is built once, so issuing an op performs
// no per-op allocation.
type thread struct {
	r    *runner
	g    *group
	t    int
	op   workload.Op
	done func()
}

// accessDone completes one memory operation and issues the next.
func (tc *thread) accessDone() {
	tc.g.completed()
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
	tc := r.threads[t]
	g := tc.g
	if g.ops >= g.budget {
		g.finishROI()
		return
	}
	op := r.gen.Next(t)
	if op.Kind == workload.Barrier {
		r.barrier(g, t)
		return
	}
	tc.op = op
	g.eng.ScheduleFn(sim.Cycle(op.Compute), issueAccess, tc, 0)
}

// completed advances the group's op counter and ROI bookkeeping.
func (g *group) completed() {
	g.ops++
	g.cnt.Ops++
	if !g.inROI && g.ops >= g.warmup {
		g.startROI()
	}
	if g.r.dynamic != nil && g.inROI {
		g.r.dynamic.tick(g.ops)
	}
}

func (g *group) startROI() {
	g.inROI = true
	g.roiStart = g.eng.Now()
	// Reset the measured statistics; cache/directory state is kept warm.
	cls := g.cnt.DRAMChannels
	*g.cnt = stats.Counters{DRAMChannels: cls}
	if len(g.r.groups) == 1 {
		g.r.sys.Link.Reset()
		for _, mc := range g.r.sys.MCs {
			mc.ResetStats()
		}
	} else {
		// Partitioned: each socket resets its own sending direction and
		// memory controller from its own partition (a memory controller is
		// only ever driven by its socket's partition, so its statistics
		// are partition-local too).
		g.r.sys.Link.ResetDir(g.id)
		g.r.sys.MCs[g.id].ResetStats()
	}
	if g.r.dynamic != nil {
		g.r.dynamic.start(g.ops)
	}
}

func (g *group) finishROI() {
	if g.inROI && g.roiCycles == 0 {
		g.roiCycles = uint64(g.eng.Now() - g.roiStart)
	}
}

// barrier parks the thread until all threads arrive. With a single group
// this is the classic in-engine barrier; with per-socket groups each group
// collects its own arrivals, reports across the link-latency mailbox to
// the coordinator on partition 0, and is released the same way, so both
// the arrival and release orders are deterministic.
func (r *runner) barrier(g *group, t int) {
	g.barWaiting++
	if len(r.groups) == 1 {
		if g.barWaiting < g.nthr {
			g.barResume = append(g.barResume, func() { r.issue(t) })
			return
		}
		// Last arrival releases everyone.
		resume := g.barResume
		g.barResume = nil
		g.barWaiting = 0
		g.eng.Schedule(barrierLatency, func() {
			for _, fn := range resume {
				fn()
			}
			r.issue(t)
		})
		return
	}
	g.barResume = append(g.barResume, func() { r.issue(t) })
	if g.barWaiting < g.nthr {
		return
	}
	// Whole group arrived: report to the coordinator on partition 0.
	if g.id == 0 {
		r.groupArrived()
		return
	}
	r.sys.PE.CrossSchedule(g.id, 0, r.crossBarrierDelay(), r.groupArrived)
}

// crossBarrierDelay is the latency of a barrier coordination hop between
// partitions: the modeled barrier cost, but never below the lookahead
// window (a cross-partition event cannot arrive sooner).
func (r *runner) crossBarrierDelay() sim.Cycle {
	d := sim.Cycle(barrierLatency)
	if w := r.sys.PE.Window(); w > d {
		d = w
	}
	return d
}

// groupArrived runs on partition 0 each time a whole group reaches the
// barrier; the final arrival releases every group.
func (r *runner) groupArrived() {
	r.barGroups++
	if r.barGroups < len(r.groups) {
		return
	}
	r.barGroups = 0
	for _, g := range r.groups {
		if g.id == 0 {
			g.eng.Schedule(barrierLatency, g.release)
		} else {
			r.sys.PE.CrossSchedule(0, g.id, r.crossBarrierDelay(), g.release)
		}
	}
}

// release resumes every thread parked at the group's barrier.
func (g *group) release() {
	resume := g.barResume
	g.barResume = nil
	g.barWaiting = 0
	for _, fn := range resume {
		fn()
	}
}

// dynamicCtl implements the sampling-based dynamic protocol (Section V-C5):
// profile allow and deny for a sample window each, then apply the winner for
// the remainder of the epoch. The dynamic protocol samples one global clock,
// so it always runs on the legacy engine (see partitionable) — the single
// group's engine is Engs[0].
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
	d.cycleStart = d.r.sys.Engs[0].Now()
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
		return float64(d.r.sys.Engs[0].Now()-d.cycleStart) / float64(elapsed)
	}
	switch d.phase {
	case 0:
		if elapsed >= cfg.SampleOps {
			d.allowCPO = cpo()
			d.phase = 1
			d.phaseStart = ops
			d.cycleStart = d.r.sys.Engs[0].Now()
			d.setMode(Deny)
		}
	case 1:
		if elapsed >= cfg.SampleOps {
			d.denyCPO = cpo()
			d.phase = 2
			d.phaseStart = ops
			d.cycleStart = d.r.sys.Engs[0].Now()
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
			d.cycleStart = d.r.sys.Engs[0].Now()
			d.setMode(Allow)
		}
	}
}
