package dve

import (
	"fmt"

	"dve/internal/topology"
)

// EngineMode selects which engine executes a run.
//
// The partitioned engine splits the machine at the socket boundary: each
// socket's events run on their own calendar queue, synchronized at
// link-latency epochs (conservative lookahead — no cross-socket message
// can arrive sooner than the link's minimum latency, so partitions may
// safely run a window of that size without consulting each other). The
// partitions run one after another on the caller's goroutine. Legacy is the
// original single-queue engine; it interleaves cross-socket events
// differently (one global tie-break order instead of the mailbox merge
// rule), so its results are internally consistent but not comparable
// event-for-event with the partitioned ones.
type EngineMode int

const (
	// EngineAuto partitions when the configuration allows it (see
	// partitionable) and falls back to legacy otherwise.
	EngineAuto EngineMode = iota
	// EngineLegacy forces the original single-queue engine.
	EngineLegacy
)

// EngineSerial is the old name of the one partitioned execution.
//
// Deprecated: the partitioned engine always runs on one goroutine now; use
// EngineAuto.
const EngineSerial = EngineAuto

// String returns the flag spelling of the mode.
func (m EngineMode) String() string {
	switch m {
	case EngineAuto:
		return "auto"
	case EngineLegacy:
		return "legacy"
	default:
		// The zero value is EngineAuto, so any other out-of-range value
		// was manufactured deliberately.
		panic(fmt.Sprintf("dve: invalid EngineMode %d", int(m)))
	}
}

// ParseEngineMode parses a -engine flag value.
func ParseEngineMode(s string) (EngineMode, error) {
	switch s {
	case "", "auto":
		return EngineAuto, nil
	case "legacy":
		return EngineLegacy, nil
	}
	return EngineAuto, fmt.Errorf("dve: unknown engine mode %q (want auto or legacy)", s)
}

// partitionable reports whether the run can use the per-socket partitioned
// engine. The disqualifiers are features that inherently bind a single
// global event order or shared mutable state:
//   - telemetry tracing attaches one engine and one timeline;
//   - fault injection, Prepare hooks and RAS campaigns mutate shared fault
//     state from arbitrary sockets;
//   - patrol scrubbing walks every socket's directory from one daemon;
//   - external op sources may keep state shared across threads, which
//     would observe the order the partitions run in;
//   - the flexible replica map is consulted from both sockets;
//   - the dynamic protocol's controller samples a global clock;
//   - the oracular replica directory reads remote directory state with
//     zero latency (a direct cross-partition peek).
//
// Such runs silently use the legacy engine instead — same results as every
// release to date.
func partitionable(rc *RunConfig, cfg *topology.Config) bool {
	return cfg.Sockets == 2 &&
		cfg.InterSocketCyc() >= 1 &&
		!cfg.Oracular &&
		cfg.Protocol != topology.ProtoDynamic &&
		rc.Telemetry == nil &&
		rc.Faults == nil &&
		rc.FaultFn == nil &&
		rc.Prepare == nil &&
		rc.ScrubIntervalCyc == 0 &&
		rc.Source == nil &&
		rc.ReplicaMap == nil
}

// resolveEngine decides whether a requested mode runs partitioned.
func resolveEngine(mode EngineMode, rc *RunConfig, cfg *topology.Config) (partitioned bool) {
	return mode != EngineLegacy && partitionable(rc, cfg)
}

// ExecutedEngine reports the engine family a RunConfig will execute:
// "partitioned" or "legacy". Cache keys use this label rather than the
// requested mode because auto on a configuration that cannot partition
// executes exactly what legacy does, while partitioned and legacy runs are
// separate statistics universes.
func (rc *RunConfig) ExecutedEngine() string {
	cfg := rc.Cfg
	if resolveEngine(rc.Engine, rc, &cfg) {
		return "partitioned"
	}
	return "legacy"
}
