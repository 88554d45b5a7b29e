package dve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"dve/internal/topology"
	"dve/internal/workload"
)

// Engine equivalence: every engine cell must reproduce the statistics
// recorded in the engine behaviour lock byte for byte, and the legacy
// fallback must engage exactly when documented. These tests are the contract
// that lets cache keys treat "partitioned" as one universe.

// equivProtocols is every protocol family. Dynamic is included on purpose:
// it is not partitionable and falls back to legacy, so its cells pin that
// the fallback itself is deterministic.
var equivProtocols = []topology.Protocol{
	topology.ProtoBaseline, topology.ProtoAllow, topology.ProtoDeny,
	topology.ProtoDynamic, topology.ProtoIntelMirror,
}

// fingerprint reduces a run to the bytes the engine lock pins: the ROI
// length, the executed engine label, the full counter set, and the
// telemetry snapshot (the CountersSnapshot view that cache envelopes and
// sweep reports carry). Workers is host-side metadata and excluded.
func fingerprint(t *testing.T, res *Result) []byte {
	t.Helper()
	b, err := json.Marshal(struct {
		Engine   string
		Cycles   uint64
		Counters any
		Metrics  any
	}{res.Engine, res.Cycles, res.Counters, res.Metrics})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// runEngine runs one cell under the default engine selection.
func runEngine(t *testing.T, spec workload.Spec, p topology.Protocol, warmup, measure uint64) *Result {
	t.Helper()
	res, err := Run(spec, RunConfig{
		Cfg:        topology.Default(p),
		WarmupOps:  warmup,
		MeasureOps: measure,
		Classify:   p == topology.ProtoBaseline,
	})
	if err != nil {
		t.Fatalf("%s/%s: %v", spec.Name, p, err)
	}
	return res
}

// The engine behaviour lock: one SHA-256 per cell over the fingerprint()
// bytes, keyed "<workload>/<protocol>@<warmup>+<measure>". It was recorded
// while the partitioned engine could also run on worker goroutines, with
// both executions agreeing on every cell. It pins every cell's statistics
// exactly, so a change to how the engine executes must leave each hash
// unchanged; regenerating the file is a deliberate act recorded in
// CHANGES.md:
//
//	go test ./internal/dve -run TestEngineEquivalence -update
const engineGoldenFile = "testdata/engine_golden.json"

func engineGoldenKey(spec workload.Spec, p topology.Protocol, warmup, measure uint64) string {
	return fmt.Sprintf("%s/%s@%d+%d", spec.Name, p, warmup, measure)
}

func engineHash(t *testing.T, res *Result) string {
	t.Helper()
	sum := sha256.Sum256(fingerprint(t, res))
	return hex.EncodeToString(sum[:])
}

// readEngineGolden loads the lock; a missing file reads as empty under
// -update, so the first run can create it.
func readEngineGolden(t *testing.T) map[string]string {
	t.Helper()
	want := map[string]string{}
	raw, err := os.ReadFile(engineGoldenFile)
	if errors.Is(err, os.ErrNotExist) && *updateGolden {
		return want
	}
	if err != nil {
		t.Fatalf("reading %s (regenerate with -update): %v", engineGoldenFile, err)
	}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("decoding %s: %v", engineGoldenFile, err)
	}
	return want
}

// checkEngineGolden compares the hashes got (computed at one op budget)
// against the lock, or merges them into it under -update. complete says
// every cell of that budget ran, so the file may hold no others.
func checkEngineGolden(t *testing.T, got map[string]string, warmup, measure uint64, complete bool) {
	t.Helper()
	want := readEngineGolden(t)
	if *updateGolden {
		for k, v := range got {
			want[k] = v
		}
		b, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(engineGoldenFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d fingerprints to %s", len(got), engineGoldenFile)
		return
	}
	for k, fp := range got {
		if w, ok := want[k]; !ok {
			t.Errorf("%s: no golden fingerprint", k)
		} else if w != fp {
			t.Errorf("%s: fingerprint %s, golden %s", k, fp[:12], w[:12])
		}
	}
	if complete {
		suffix := fmt.Sprintf("@%d+%d", warmup, measure)
		n := 0
		for k := range want {
			if strings.HasSuffix(k, suffix) {
				n++
			}
		}
		if n != len(got) {
			t.Errorf("%s holds %d cells at %s, the test runs %d", engineGoldenFile, n, suffix, len(got))
		}
	}
}

// TestEngineEquivalenceMatrix sweeps every Table III workload under every
// protocol and checks each cell against the engine behaviour lock. The
// per-cell op budget is kept small so the 20×5 matrix stays a tier-1 test;
// TestEngineEquivalenceQuickCells covers the full quick scale on a
// spot-check subset. -short trims the sweep to a diverse corner.
func TestEngineEquivalenceMatrix(t *testing.T) {
	specs := workload.Suite(16)
	protos := equivProtocols
	warmup, measure := uint64(10_000), uint64(30_000)
	if testing.Short() {
		specs = specs[:4]
		protos = []topology.Protocol{topology.ProtoAllow, topology.ProtoDeny}
	}
	got := map[string]string{}
	for _, spec := range specs {
		for _, p := range protos {
			spec, p := spec, p
			t.Run(spec.Name+"/"+p.String(), func(t *testing.T) {
				res := runEngine(t, spec, p, warmup, measure)
				want := "partitioned"
				if p == topology.ProtoDynamic {
					want = "legacy" // not partitionable
				}
				if res.Engine != want {
					t.Fatalf("ran on %s, want %s", res.Engine, want)
				}
				got[engineGoldenKey(spec, p, warmup, measure)] = engineHash(t, res)
			})
		}
	}
	checkEngineGolden(t, got, warmup, measure, !testing.Short())
}

// TestEngineEquivalenceQuickCells checks the lock at the real Quick
// experiment scale (the scale CI's bench smoke and the cached sweeps run
// at) on a contrasting subset, so a divergence that only opens up beyond
// the matrix test's small budget still gets caught.
func TestEngineEquivalenceQuickCells(t *testing.T) {
	if testing.Short() {
		t.Skip("quick-scale cells take ~1s each")
	}
	cells := []struct {
		workload string
		protocol topology.Protocol
	}{
		{"fft", topology.ProtoDeny},
		{"graph500", topology.ProtoAllow},
		{"canneal", topology.ProtoBaseline},
	}
	const warmup, measure = 50_000, 120_000
	got := map[string]string{}
	for _, c := range cells {
		c := c
		t.Run(c.workload+"/"+c.protocol.String(), func(t *testing.T) {
			spec, ok := workload.ByName(c.workload, 16)
			if !ok {
				t.Fatalf("unknown workload %q", c.workload)
			}
			res := runEngine(t, spec, c.protocol, warmup, measure)
			got[engineGoldenKey(spec, c.protocol, warmup, measure)] = engineHash(t, res)
		})
	}
	checkEngineGolden(t, got, warmup, measure, true)
}

// TestParallelRunTwiceDeterminism runs the same cell twice on the
// partitioned engine and demands byte-identical results: the mailbox merge
// rule (when, src, send order) makes the event order, and so every
// statistic, a pure function of the inputs.
func TestParallelRunTwiceDeterminism(t *testing.T) {
	spec := smallSpec("graph500")
	first := runEngine(t, spec, topology.ProtoDeny, 20_000, 60_000)
	second := runEngine(t, spec, topology.ProtoDeny, 20_000, 60_000)
	if first.Engine != "partitioned" {
		t.Fatalf("ran on %s, want partitioned", first.Engine)
	}
	f1, f2 := fingerprint(t, first), fingerprint(t, second)
	if !bytes.Equal(f1, f2) {
		t.Errorf("partitioned run not reproducible:\nfirst:  %s\nsecond: %s", f1, f2)
	}
	if first.Counters.EngineEpochs == 0 {
		t.Error("partitioned run recorded no sync epochs")
	}
}

// TestLegacyFallbackConfigs pins the partitionable() contract: each
// disqualifying feature forces the legacy engine under the default engine
// selection, and the pre-run ExecutedEngine prediction (which cache keys
// rely on) agrees with what actually executed.
func TestLegacyFallbackConfigs(t *testing.T) {
	cases := []struct {
		name string
		mut  func(rc *RunConfig)
	}{
		{"dynamic-protocol", func(rc *RunConfig) { rc.Cfg = topology.Default(topology.ProtoDynamic) }},
		{"oracular", func(rc *RunConfig) { rc.Cfg.Oracular = true }},
		{"scrubbing", func(rc *RunConfig) { rc.ScrubIntervalCyc = 100_000 }},
		{"fault-injection", func(rc *RunConfig) {
			rc.FaultFn = func(socket int, a topology.Addr) bool { return false }
		}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			rc := RunConfig{
				Cfg:        topology.Default(topology.ProtoDeny),
				WarmupOps:  2_000,
				MeasureOps: 5_000,
				Engine:     EngineAuto,
			}
			c.mut(&rc)
			if got := rc.ExecutedEngine(); got != "legacy" {
				t.Fatalf("ExecutedEngine() = %q, want legacy", got)
			}
			res, err := Run(smallSpec("fft"), rc)
			if err != nil {
				t.Fatal(err)
			}
			if res.Engine != "legacy" {
				t.Fatalf("executed on %q, want legacy", res.Engine)
			}
		})
	}
	// And the positive case: a plain deny run is predicted as partitioned.
	rc := RunConfig{Cfg: topology.Default(topology.ProtoDeny), WarmupOps: 2_000,
		MeasureOps: 5_000, Engine: EngineAuto}
	if got := rc.ExecutedEngine(); got != "partitioned" {
		t.Fatalf("ExecutedEngine() = %q, want partitioned", got)
	}
}

// TestParseEngineModeRoundTrip pins flag spellings: auto and legacy are the
// only engines, and the retired worker-goroutine spellings are rejected
// with the list of valid values.
func TestParseEngineModeRoundTrip(t *testing.T) {
	for _, m := range []EngineMode{EngineAuto, EngineLegacy} {
		got, err := ParseEngineMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseEngineMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	for _, bad := range []string{"warp-drive", "serial", "parallel", "both"} {
		_, err := ParseEngineMode(bad)
		if err == nil {
			t.Errorf("mode %q accepted", bad)
		} else if !strings.Contains(err.Error(), "want auto or legacy") {
			t.Errorf("mode %q: error %q does not list the valid values", bad, err)
		}
	}
	if m, err := ParseEngineMode(""); err != nil || m != EngineAuto {
		t.Errorf("empty mode = %v, %v; want auto", m, err)
	}
}
