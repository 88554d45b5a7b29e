// Package topology describes the simulated machine: the Table II system
// configuration, physical address geometry, page interleaving across sockets,
// and the fixed-function replica address mapping from Section III of the
// paper.
package topology

import "fmt"

// Protocol selects the Dvé replica-directory protocol family (Section V-C).
type Protocol int

const (
	// ProtoBaseline is the plain NUMA system without replication.
	ProtoBaseline Protocol = iota
	// ProtoAllow is the allow-based (lazy pull) replica protocol.
	ProtoAllow
	// ProtoDeny is the deny-based (eager push) replica protocol.
	ProtoDeny
	// ProtoDynamic samples allow and deny each epoch and applies the winner.
	ProtoDynamic
	// ProtoIntelMirror is the improved Intel-mirroring++ baseline: replicas on
	// a second channel of the same socket with load-balanced reads.
	ProtoIntelMirror
)

// String returns the short name used in reports.
func (p Protocol) String() string {
	switch p {
	case ProtoBaseline:
		return "baseline"
	case ProtoAllow:
		return "allow"
	case ProtoDeny:
		return "deny"
	case ProtoDynamic:
		return "dynamic"
	case ProtoIntelMirror:
		return "intel-mirror++"
	}
	return "unknown"
}

// ParseProtocol maps a report name (as produced by Protocol.String) back to
// its Protocol, for CLIs and the sweep service.
func ParseProtocol(s string) (Protocol, error) {
	for _, p := range []Protocol{
		ProtoBaseline, ProtoAllow, ProtoDeny, ProtoDynamic, ProtoIntelMirror,
	} {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("topology: unknown protocol %q", s)
}

// Config captures the simulated system parameters (paper Table II).
type Config struct {
	Sockets        int // 2
	CoresPerSocket int // 8
	ClockGHz       float64

	// L1 per-core private cache.
	L1SizeBytes   int
	L1Ways        int
	L1LatencyCyc  int
	LineSizeBytes int

	// LLC (L2) shared per socket, inclusive, embeds the local directory.
	LLCSizeBytes  int
	LLCWays       int
	LLCLatencyCyc int

	// Global directory access latency (cycles).
	DirLatencyCyc int

	// DRAM timing in nanoseconds (DDR4-2400 per Table II).
	TCLns  float64
	TRCDns float64
	TRPns  float64
	TRASns float64

	RowBufferBytes  int
	BanksPerRank    int
	ChannelsPerSkt  int // 1 baseline, 2 with replication capacity added
	MemPerSocketGiB int

	// Mesh: per-hop latency in cycles; 2x4 mesh per socket.
	MeshRows, MeshCols int
	MeshHopCyc         int

	// Inter-socket point-to-point link latency, one way, in nanoseconds.
	InterSocketNs float64

	// PageBytes is the OS page size used for socket interleaving and the
	// fixed-function replica mapping.
	PageBytes int

	Protocol Protocol

	// Replica directory configuration (Section VI "Protocol Config").
	ReplicaDirEntries int  // fully associative; 2048 default
	SpeculativeReads  bool // speculative replica access optimization
	CoarseGrain       bool // region-granularity replica directory (Fig 9)
	RegionBytes       int  // region size when CoarseGrain
	Oracular          bool // infinite, zero-insert-latency replica directory

	// Dynamic protocol sampling (Section V-C5).
	SampleOps uint64 // profile phase length per scheme, in ops
	EpochOps  uint64 // total epoch length in ops

	// FootprintHintLines is the expected number of distinct cache lines the
	// run will touch (derived from the workload footprint). It only pre-sizes
	// directory and row-hammer tracking structures — capacity hints never
	// change simulated behaviour. 0 means no hint.
	FootprintHintLines int

	// RowHammerThreshold overrides the per-row activation count within one
	// refresh window at which the memory controller flags the row as
	// hammered (0 = the package mem default). Adversarial campaigns lower
	// it so threshold crossings are reachable at simulation op counts.
	RowHammerThreshold uint32
}

// Default returns the Table II configuration with the given protocol.
func Default(p Protocol) Config {
	c := Config{
		Sockets:        2,
		CoresPerSocket: 8,
		ClockGHz:       3.0,

		L1SizeBytes:   64 << 10,
		L1Ways:        8,
		L1LatencyCyc:  1,
		LineSizeBytes: 64,

		LLCSizeBytes:  8 << 20,
		LLCWays:       16,
		LLCLatencyCyc: 20,

		DirLatencyCyc: 20,

		TCLns:  14.16,
		TRCDns: 14.16,
		TRPns:  14.16,
		TRASns: 32,

		RowBufferBytes:  1 << 10,
		BanksPerRank:    16,
		ChannelsPerSkt:  1,
		MemPerSocketGiB: 8,

		MeshRows:   2,
		MeshCols:   4,
		MeshHopCyc: 1,

		InterSocketNs: 50,

		PageBytes: 4 << 10,

		Protocol: p,

		ReplicaDirEntries: 2048,
		SpeculativeReads:  true,
		RegionBytes:       4 << 10,

		// SampleOps/EpochOps of 0 auto-scale to the run length (the paper
		// profiles 100M instructions per scheme every 1B instructions).
		SampleOps: 0,
		EpochOps:  0,
	}
	if p != ProtoBaseline {
		// Replicated memory: DIMMs added on another channel on both nodes
		// (Section VI "Memory Configuration").
		c.ChannelsPerSkt = 2
	}
	return c
}

// Cycles converts nanoseconds to clock cycles, rounding to nearest.
func (c *Config) Cycles(ns float64) int {
	return int(ns*c.ClockGHz + 0.5)
}

// InterSocketCyc returns the one-way socket link latency in cycles.
func (c *Config) InterSocketCyc() int { return c.Cycles(c.InterSocketNs) }

// CheckInterSocket reports an error unless InterSocketNs is a finite
// latency that rounds to at least one cycle (and fits the cycle counter).
// The link model and the partitioned engine's lookahead window both need a
// positive latency; NaN, infinities and negative values would otherwise be
// converted to nonsense cycle counts.
func (c *Config) CheckInterSocket() error {
	cyc := c.InterSocketNs*c.ClockGHz + 0.5
	if !(cyc >= 1 && cyc < 1<<62) {
		return fmt.Errorf("topology: inter-socket latency %v ns is not a finite latency of at least one cycle", c.InterSocketNs)
	}
	return nil
}

// TotalCores returns the core count across all sockets.
func (c *Config) TotalCores() int { return c.Sockets * c.CoresPerSocket }

// Replicated reports whether the configuration maintains cross-socket
// replicas via coherent replication.
func (c *Config) Replicated() bool {
	switch c.Protocol {
	case ProtoAllow, ProtoDeny, ProtoDynamic:
		return true
	case ProtoBaseline, ProtoIntelMirror:
		// Baseline keeps a single copy; Intel mirroring duplicates writes
		// in hardware but maintains no coherent replica directory.
		return false
	}
	return false
}
