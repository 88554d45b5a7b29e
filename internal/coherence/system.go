// Package coherence implements the two-level hierarchical directory protocol
// of the simulated machine (Table II): per-core private L1s kept coherent by
// a local directory embedded in each socket's inclusive LLC, and a global
// home directory per socket (MOSI, socket-grain sharer vector) adjoining the
// memory controller.
//
// The package exposes the extension points Dvé needs: requests from a socket
// to remotely-homed lines can be routed through a ReplicaAgent (the Dvé
// replica directory, package dve) instead of crossing the inter-socket link,
// and the home directory invokes the agent for invalidations, deny pushes,
// and dirty-data fetches.
package coherence

import (
	"fmt"

	"dve/internal/cache"
	"dve/internal/mem"
	"dve/internal/noc"
	"dve/internal/sim"
	"dve/internal/stats"
	"dve/internal/telemetry"
	"dve/internal/topology"
)

// ReplicaMapper translates an address to its replica address; ok=false
// means the address is not replicated (the flexible table-based mapping of
// Section V-D).
type ReplicaMapper interface {
	ReplicaAddr(a topology.Addr) (topology.Addr, bool)
}

// ReplicaAgent is the interface the home directory and LLCs use to interact
// with a Dvé replica directory located on a socket. All methods are invoked
// at the agent's socket; any link crossing to reach the agent has already
// been paid by the caller.
type ReplicaAgent interface {
	// LocalGETS handles a read request from this socket's LLC for a line
	// homed on the other socket. done fires when data is available at the
	// LLC; fromReplica reports whether the local replica supplied it.
	LocalGETS(l topology.Line, needData bool, done func(fromReplica bool))
	// LocalGETX handles a write (exclusive) request from this socket's LLC.
	LocalGETX(l topology.Line, needData bool, done func())
	// LocalPUTM handles a dirty writeback from this socket's LLC: the data
	// must reach both the replica memory and the home memory synchronously.
	LocalPUTM(l topology.Line, done func())
	// HomeInvalidate is pushed by the home directory when a home-side agent
	// acquires exclusive access (allow protocol: INV; deny protocol: DENY,
	// which installs the RM state). The agent invalidates any replica-side
	// LLC copies and acks.
	HomeInvalidate(l topology.Line, ack func())
	// HomeUndeny clears a previously pushed deny (RM) after the home-side
	// writer has written back (deny protocol only; no ack needed).
	HomeUndeny(l topology.Line)
	// HomeFetch retrieves dirty data from the replica-side owner LLC:
	// the agent probes its LLC, writes the replica memory, and acks with the
	// data (the link crossing back to home is paid by the caller). If
	// invalidate is set the owner's copy is invalidated, otherwise it is
	// downgraded to Shared.
	HomeFetch(l topology.Line, invalidate bool, ack func())
	// Drain clears replica-directory state ahead of a protocol switch
	// (dynamic protocol, Section V-C5).
	Drain(done func())
}

// System wires together the cores, caches, directories, memory controllers
// and interconnect of the simulated machine.
//
// The system is partition-aware: Engs holds one engine per socket and Cnts
// one counter shard per socket. On the legacy single-queue engine every
// slot aliases the same object, so indexing by socket is free; under a
// sim.ParallelEngine (PE non-nil) the slots are distinct, every component
// schedules and counts strictly on its own socket's slot, and the only
// cross-socket channel is the Link's mailbox path.
type System struct {
	Engs []*sim.Engine
	// PE is the partitioned engine that owns Engs as its partitions, or nil
	// when all Engs slots alias one single-queue engine.
	PE   *sim.ParallelEngine
	Cfg  *topology.Config
	AMap *topology.AddrMap
	Mesh *noc.Mesh
	Link *noc.Link

	MCs  []*mem.Controller
	LLCs []*LLC
	Dirs []*HomeDir

	// Replicas[s] is the replica agent at socket s (handling lines homed at
	// the other socket), or nil when the configuration has no coherent
	// replication.
	Replicas []ReplicaAgent

	// ReplicaMap, when non-nil, provides flexible (RMT) replica mapping:
	// pages without an entry fall back to a single copy. When nil, the
	// fixed-function mapping replicates the entire memory (Section III).
	ReplicaMap ReplicaMapper

	// Cnts[s] is socket s's counter shard; Counters() folds the shards
	// into the run-level view (a plain copy in the aliased legacy case).
	Cnts []*stats.Counters

	// DebugLine/DebugLog: when set, protocol steps touching DebugLine are
	// reported (test diagnostics only).
	DebugLine topology.Line
	DebugLog  func(format string, args ...any)

	// Classify enables Fig 7 sharing-pattern classification at the home
	// directories.
	Classify bool

	// RASEvent, when set, observes every recovery-path step (the RAS
	// journal of package ras subscribes here). Kinds are the Ev* constants.
	RASEvent func(kind string, socket int, l topology.Line)

	// Trace, when non-nil, is the telemetry sink every component of this
	// system reports into (wired by SetTracer). Probe sites nil-check it,
	// so the disabled path costs one branch.
	Trace *telemetry.Tracer

	// RepairFn, when set, is invoked whenever the recovery path writes
	// known-good data over a failed location (demand repair, scrub repair,
	// replica repair): the fault model clears transient faults covering
	// the address.
	RepairFn func(socket int, a topology.Addr)

	// RetireFn, when set, is consulted when a line keeps failing its
	// repair-verify re-read (the escalation ladder's last rung). It returns
	// true when the containing page was retired (the RMT remaps it); the
	// line is placed in the degraded state either way.
	RetireFn func(l topology.Line) bool

	// mcDead marks sockets whose memory controller was killed mid-run
	// (KillSocketMemory); lines whose replica lives on a dead socket are
	// demoted to unreplicated mode.
	mcDead  []bool
	anyDead bool

	l1s []*cache.Cache

	// accFree pools access-request records so the L1-miss path schedules
	// without per-request closure allocations (LIFO reuse: deterministic).
	// One pool per socket: a record is taken and recycled only by its own
	// socket's partition.
	accFree [][]*accessReq
}

// Partitioned reports whether the sockets run on separate engine
// partitions (in which case all scheduling and counting must stay
// socket-local and only the Link may cross).
func (s *System) Partitioned() bool { return s.PE != nil }

// Counters returns the run-level counter view: socket shards folded in
// ascending socket order (deterministic), or a copy of the single shared
// object in the legacy aliased case.
func (s *System) Counters() stats.Counters {
	if !s.Partitioned() {
		return *s.Cnts[0]
	}
	var out stats.Counters
	for _, c := range s.Cnts {
		out.Merge(c)
	}
	return out
}

// RAS event kinds reported through System.RASEvent, in escalation-ladder
// order. Package ras journals them; the strings are stable output format.
const (
	EvDetect     = "detect"      // local ECC check failed on a read
	EvRetry      = "retry"       // local re-read issued (ladder rung 1)
	EvRetryOK    = "retry-ok"    // error cleared on a local re-read
	EvRecover    = "recover"     // data recovered from the replica (rung 2)
	EvRepair     = "repair"      // repair write of recovered data (rung 3)
	EvRepairOK   = "repair-ok"   // verify re-read passed: location healed
	EvRepairFail = "repair-fail" // verify re-read still failing
	EvRetire     = "retire"      // page retired via the RMT (rung 4)
	EvDegraded   = "degraded"    // line demoted to single-copy service
	EvDUE        = "due"         // detected-uncorrectable: no copy readable
	EvSocketKill = "socket-kill" // memory controller lost
	EvDemote     = "demote"      // lines lost their replica to a kill
	EvDrained    = "drained"     // dead socket's replica directory drained
)

// rasEvent reports a recovery-path step to the attached observer, if any,
// and mirrors it into the telemetry timeline/flight recorder.
func (s *System) rasEvent(kind string, socket int, l topology.Line) {
	if s.RASEvent != nil {
		s.RASEvent(kind, socket, l)
	}
	if s.Trace != nil {
		s.Trace.Point(telemetry.CompRAS, socket, kind, uint64(l))
	}
}

// repairAt notifies the fault model that known-good data was written over
// the address (clearing transient faults).
func (s *System) repairAt(socket int, a topology.Addr) {
	if s.RepairFn != nil {
		s.RepairFn(socket, a)
	}
}

// RASNote is rasEvent for sibling packages: the Dvé replica directory
// reports its own recovery-path steps through it.
func (s *System) RASNote(kind string, socket int, l topology.Line) {
	s.rasEvent(kind, socket, l)
}

// RepairNote is repairAt for sibling packages.
func (s *System) RepairNote(socket int, a topology.Addr) {
	s.repairAt(socket, a)
}

// New builds a system on the legacy single-queue engine: every Engs/Cnts
// slot aliases one engine and one counter object. Replica agents are
// attached afterwards (SetReplicaAgent) to keep this package independent
// of the Dvé implementation.
func New(cfg *topology.Config) (*System, error) {
	eng := sim.NewEngine()
	engs := make([]*sim.Engine, cfg.Sockets)
	for i := range engs {
		engs[i] = eng
	}
	cnt := &stats.Counters{}
	cnts := make([]*stats.Counters, cfg.Sockets)
	for i := range cnts {
		cnts[i] = cnt
	}
	return build(cfg, engs, cnts, nil)
}

// NewPartitioned builds a system whose sockets run on the partitions of
// pe: Engs[s] is partition s, Cnts[s] a distinct per-socket shard, and the
// inter-socket link crosses partitions through pe's mailbox. pe must have
// one partition per socket and a lookahead window no larger than the
// link's minimum latency.
func NewPartitioned(cfg *topology.Config, pe *sim.ParallelEngine) (*System, error) {
	if pe.Parts() != cfg.Sockets {
		return nil, fmt.Errorf("coherence: %d engine partitions for %d sockets", pe.Parts(), cfg.Sockets)
	}
	engs := make([]*sim.Engine, cfg.Sockets)
	cnts := make([]*stats.Counters, cfg.Sockets)
	for i := range engs {
		engs[i] = pe.Part(i)
		cnts[i] = &stats.Counters{}
	}
	s, err := build(cfg, engs, cnts, pe)
	if err != nil {
		return nil, err
	}
	if w := s.Link.MinLatency(); pe.Window() > w {
		return nil, fmt.Errorf("coherence: lookahead window %d exceeds link minimum latency %d", pe.Window(), w)
	}
	return s, nil
}

func build(cfg *topology.Config, engs []*sim.Engine, cnts []*stats.Counters, pe *sim.ParallelEngine) (*System, error) {
	// Validate before converting: a negative or NaN latency would wrap to a
	// huge sim.Cycle and slip past the link's own minimum check.
	if err := cfg.CheckInterSocket(); err != nil {
		return nil, fmt.Errorf("coherence: %w", err)
	}
	amap := topology.NewAddrMap(cfg)
	link, err := noc.NewLink([2]*sim.Engine{engs[0], engs[cfg.Sockets-1]}, pe, sim.Cycle(cfg.InterSocketCyc()))
	if err != nil {
		return nil, err
	}
	s := &System{
		Engs: engs,
		PE:   pe,
		Cfg:  cfg,
		AMap: amap,
		Mesh: noc.NewMesh(cfg.MeshRows, cfg.MeshCols, cfg.MeshHopCyc),
		Link: link,
		Cnts: cnts,
	}
	for _, c := range s.Cnts {
		c.DRAMChannels = cfg.ChannelsPerSkt * cfg.Sockets
	}
	s.Replicas = make([]ReplicaAgent, cfg.Sockets)
	s.mcDead = make([]bool, cfg.Sockets)
	s.accFree = make([][]*accessReq, cfg.Sockets)
	for sk := 0; sk < cfg.Sockets; sk++ {
		mc := mem.NewController(s.Engs[sk], cfg, amap, sk)
		if cfg.Protocol == topology.ProtoIntelMirror {
			mc.Mirror = true
		}
		mc.EnableRefresh()
		s.MCs = append(s.MCs, mc)
		s.Dirs = append(s.Dirs, newHomeDir(s, sk))
		s.LLCs = append(s.LLCs, newLLC(s, sk))
	}
	for c := 0; c < cfg.TotalCores(); c++ {
		s.l1s = append(s.l1s, cache.New(cfg.L1SizeBytes, cfg.L1Ways, cfg.LineSizeBytes))
	}
	return s, nil
}

// SetReplicaAgent attaches the replica agent for a socket.
func (s *System) SetReplicaAgent(socket int, a ReplicaAgent) { s.Replicas[socket] = a }

// SetTracer wires a telemetry tracer through every component of the
// system: the engine's dispatch hook, the inter-socket link, the memory
// controllers, and the home-directory sequencers. Call it right after New
// (before replica agents attach — dve's directories pick the tracer up
// from here). A nil tracer is a no-op, keeping the call unconditional in
// runners.
func (s *System) SetTracer(t *telemetry.Tracer) {
	if t == nil {
		return
	}
	// A tracer binds one engine and one timeline, so tracing is a
	// single-engine (legacy) feature; partitioned runs fall back to the
	// legacy engine before attaching one.
	s.Trace = t
	t.Attach(s.Engs[0])
	s.Engs[0].OnDispatch = t.EngineDispatch
	s.Link.Trace = t
	for sk, mc := range s.MCs {
		mc.Trace = t
		s.Dirs[sk].seqq.Trace = t
		s.Dirs[sk].seqq.Comp = telemetry.CompHomeDir
		s.Dirs[sk].seqq.Socket = sk
	}
}

// ReplicaAddrOf returns the replica address of a line and whether one
// exists under the active mapping. Lines whose replica lives on a killed
// memory controller report no replica: they have been demoted to
// unreplicated mode (graceful degradation).
func (s *System) ReplicaAddrOf(l topology.Line) (topology.Addr, bool) {
	ra, ok := s.RawReplicaAddr(l)
	if !ok {
		return 0, false
	}
	if s.anyDead && s.mcDead[s.AMap.HomeSocket(ra)] {
		return 0, false
	}
	return ra, true
}

// RawReplicaAddr returns the replica address under the active mapping,
// ignoring kill-driven demotion. In-flight replica-directory transactions
// use it so they can complete against a dead controller (whose reads fail
// and writes are dropped) instead of panicking on a vanished mapping.
func (s *System) RawReplicaAddr(l topology.Line) (topology.Addr, bool) {
	if !s.Cfg.Replicated() {
		return 0, false
	}
	if s.ReplicaMap != nil {
		return s.ReplicaMap.ReplicaAddr(topology.Addr(l))
	}
	return s.AMap.ReplicaAddr(topology.Addr(l)), true
}

// KillSocketMemory models the on-demand loss of one socket's memory
// controller mid-run (Section V-B2's worst case, Section V-D's on-demand
// disable). Effects, all without stopping the run:
//
//   - every read of the dead controller fails and every write is dropped;
//   - lines whose replica lived on the dead socket are demoted to
//     unreplicated mode (single copy, no dual writebacks, no deny pushes);
//   - lines homed on the dead socket degrade per line through the normal
//     escalation ladder and are then served from the surviving replica;
//   - the dead socket's replica directory is drained so in-flight
//     transactions complete and no new replica reads hit dead memory.
//
// done, if non-nil, fires once the drain completes.
func (s *System) KillSocketMemory(socket int, done func()) {
	if s.mcDead[socket] {
		if done != nil {
			s.Engs[socket].Schedule(0, done)
		}
		return
	}
	s.MCs[socket].Kill()
	s.Cnts[socket].SocketKills++
	s.rasEvent(EvSocketKill, socket, 0)

	// Count the demotions before flipping the flag so RawReplicaAddr and
	// the pre-kill mapping agree.
	demoted := uint64(0)
	for _, d := range s.Dirs {
		for _, l := range d.lineOrder {
			if ra, ok := s.RawReplicaAddr(l); ok && s.AMap.HomeSocket(ra) == socket {
				demoted++
			}
		}
	}
	s.mcDead[socket] = true
	s.anyDead = true
	if demoted > 0 {
		s.Cnts[socket].DemotedLines += demoted
		s.rasEvent(EvDemote, socket, 0)
	}

	if a := s.Replicas[socket]; a != nil {
		a.Drain(func() {
			s.rasEvent(EvDrained, socket, 0)
			if done != nil {
				done()
			}
		})
		return
	}
	if done != nil {
		s.Engs[socket].Schedule(0, done)
	}
}

// HasReplica reports whether the line is replicated.
func (s *System) HasReplica(l topology.Line) bool {
	_, ok := s.ReplicaAddrOf(l)
	return ok
}

// SocketOf returns the socket a core belongs to.
func (s *System) SocketOf(core int) int { return core / s.Cfg.CoresPerSocket }

// coreLatency returns the mesh latency from a core's tile to its socket's
// LLC/home tile.
func (s *System) coreLatency(core int) sim.Cycle {
	local := core % s.Cfg.CoresPerSocket
	return s.Mesh.Latency(s.Mesh.CoreTile(local), s.Mesh.HomeTile())
}

// accessReq carries one L1-miss request through the event queue. The record
// (and its grant callback) is pooled on the System, so the miss path costs
// no per-request closure allocations.
type accessReq struct {
	s      *System
	core   int
	socket int
	write  bool
	line   topology.Line
	done   func()
	// grant is built once per record; it captures only the record itself.
	grant func()
}

func (s *System) getAccessReq(socket int) *accessReq {
	pool := s.accFree[socket]
	if n := len(pool); n > 0 {
		ar := pool[n-1]
		s.accFree[socket] = pool[:n-1]
		return ar
	}
	ar := &accessReq{s: s, socket: socket}
	ar.grant = func() {
		// The L1 fill was applied at grant time (inside Request, so no
		// probe can slip between the LLC grant and the L1 bookkeeping);
		// only the return trip to the core remains. Copy the fields out
		// before recycling: the record may be reissued before done fires.
		sys, core, done := ar.s, ar.core, ar.done
		ar.done = nil
		sys.accFree[ar.socket] = append(sys.accFree[ar.socket], ar)
		sys.Engs[ar.socket].Schedule(sys.coreLatency(core), done)
	}
	return ar
}

// accessDispatch forwards a pooled access request to the requester's LLC.
func accessDispatch(arg any, _ uint64) {
	ar := arg.(*accessReq)
	s := ar.s
	s.LLCs[s.SocketOf(ar.core)].Request(ar.core, ar.write, ar.line, ar.grant)
}

// Access issues a memory operation from a core and invokes done when it
// completes. Reads complete when data reaches the core; writes complete when
// write permission is held (stores retire into the L1).
func (s *System) Access(core int, write bool, a topology.Addr, done func()) {
	sk := s.SocketOf(core)
	cnt := s.Cnts[sk]
	if write {
		cnt.Writes++
	} else {
		cnt.Reads++
	}
	line := s.AMap.LineOf(a)
	l1 := s.l1s[core]
	e := l1.Lookup(line)
	hit := e != nil && (e.State.Readable() && !write || e.State.Writable())
	if hit {
		cnt.L1Hits++
		if write {
			e.Dirty = true
		}
		s.Engs[sk].Schedule(sim.Cycle(s.Cfg.L1LatencyCyc), done)
		return
	}
	cnt.L1Misses++
	lat := sim.Cycle(s.Cfg.L1LatencyCyc) + s.coreLatency(core)
	ar := s.getAccessReq(sk)
	ar.core, ar.write, ar.line, ar.done = core, write, line, done
	s.Engs[sk].ScheduleFn(lat, accessDispatch, ar, 0)
}

// l1Fill installs a line into a core's L1 after an LLC grant, updating the
// local directory bits and handling the L1 victim.
func (s *System) l1Fill(core int, line topology.Line, write bool) {
	l1 := s.l1s[core]
	st := cache.Shared
	if write {
		st = cache.Modified
	}
	e, victim, evicted := l1.Insert(line, st)
	e.Dirty = write
	if evicted {
		s.llcAbsorbL1Victim(core, victim)
	}
	s.LLCs[s.SocketOf(core)].noteL1Fill(core, line, write)
}

// llcAbsorbL1Victim handles an L1 eviction: dirty data merges into the LLC
// copy; the local directory sharer bit is cleared.
func (s *System) llcAbsorbL1Victim(core int, victim cache.Entry) {
	llc := s.LLCs[s.SocketOf(core)]
	if le := llc.store.Peek(victim.Line); le != nil {
		if victim.Dirty {
			le.Dirty = true
		}
		lc := core % s.Cfg.CoresPerSocket
		le.Sharers &^= 1 << uint(lc)
		if le.Owner == int8(lc) {
			le.Owner = -1
		}
	}
}

// probeL1 invalidates (or downgrades) a core's L1 copy, returning whether the
// copy was dirty. State changes are immediate; the caller accounts latency.
func (s *System) probeL1(core int, line topology.Line, invalidate bool) (dirty bool) {
	l1 := s.l1s[core]
	e := l1.Peek(line)
	if e == nil {
		return false
	}
	dirty = e.Dirty
	if invalidate {
		l1.Invalidate(line)
	} else if e.State == cache.Modified {
		e.State = cache.Shared
	}
	return dirty
}

// sendToHome delivers fn at the home directory of the line, paying the link
// if the requester's socket differs from the home socket.
func (s *System) sendToHome(fromSocket int, l topology.Line, bytes int, fn func()) {
	home := s.AMap.HomeSocketLine(l)
	if fromSocket == home {
		s.Engs[home].Schedule(0, fn)
		return
	}
	s.Link.Send(fromSocket, bytes, fn)
}

// replyFromHome delivers fn at the requester, paying the link if needed.
func (s *System) replyFromHome(l topology.Line, toSocket int, bytes int, fn func()) {
	home := s.AMap.HomeSocketLine(l)
	if toSocket == home {
		s.Engs[home].Schedule(0, fn)
		return
	}
	s.Link.Send(home, bytes, fn)
}

// Drain runs the engine(s) until all queued demanded events complete.
func (s *System) Drain() {
	if s.PE != nil {
		s.PE.Run()
		return
	}
	s.Engs[0].Run()
}
