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

// Engine behaviour lock: every engine cell must reproduce the statistics
// recorded in testdata/engine_golden.json byte for byte.

// equivProtocols is every protocol family.
var equivProtocols = []topology.Protocol{
	topology.ProtoBaseline, topology.ProtoAllow, topology.ProtoDeny,
	topology.ProtoDynamic, topology.ProtoIntelMirror,
}

// fingerprint reduces a run to the bytes the engine lock pins: the ROI
// length, the full counter set, and the telemetry snapshot (the
// CountersSnapshot view that cache envelopes and sweep reports carry). The
// engine label and Workers are host-side metadata and excluded.
func fingerprint(t *testing.T, res *Result) []byte {
	t.Helper()
	b, err := json.Marshal(struct {
		Cycles   uint64
		Counters any
		Metrics  any
	}{res.Cycles, res.Counters, res.Metrics})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// runEngine runs one cell.
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
// bytes, keyed "<workload>/<protocol>@<warmup>+<measure>". It pins every
// cell's statistics
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

// TestParallelRunTwiceDeterminism runs the same cell twice and demands
// byte-identical results: every statistic is a pure function of the inputs.
// (The name is kept from the per-socket partitioned engine, whose
// determinism it first pinned.)
func TestParallelRunTwiceDeterminism(t *testing.T) {
	spec := smallSpec("graph500")
	first := runEngine(t, spec, topology.ProtoDeny, 20_000, 60_000)
	second := runEngine(t, spec, topology.ProtoDeny, 20_000, 60_000)
	f1, f2 := fingerprint(t, first), fingerprint(t, second)
	if !bytes.Equal(f1, f2) {
		t.Errorf("run not reproducible:\nfirst:  %s\nsecond: %s", f1, f2)
	}
	if first.Engine != engineLabel || first.Workers != 1 {
		t.Errorf("engine %q/%d, want %q/1", first.Engine, first.Workers, engineLabel)
	}
	if first.Counters.EngineEpochs != 0 || first.Counters.EngineBarrierStalls != 0 {
		t.Errorf("epoch counters %d/%d on the single queue, want 0/0",
			first.Counters.EngineEpochs, first.Counters.EngineBarrierStalls)
	}
}

// TestLegacyFallbackConfigs covers the features that once forced the
// single-queue fallback of the per-socket partitioned engine (hence the
// name): each shares state across sockets, so each must still produce a
// clean, reproducible run on the one engine.
func TestLegacyFallbackConfigs(t *testing.T) {
	cases := []struct {
		name string
		mut  func(rc *RunConfig)
	}{
		{"dynamic-protocol", func(rc *RunConfig) { rc.Cfg = topology.Default(topology.ProtoDynamic) }},
		{"oracular", func(rc *RunConfig) { rc.Cfg.Oracular = true }},
		{"scrubbing", func(rc *RunConfig) { rc.ScrubIntervalCyc = 100_000 }},
		{"fault-injection", func(rc *RunConfig) {
			rc.FaultFn = func(socket int, a topology.Addr) bool { return a%97 == 0 }
		}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			run := func() *Result {
				rc := RunConfig{
					Cfg:        topology.Default(topology.ProtoDeny),
					WarmupOps:  2_000,
					MeasureOps: 5_000,
				}
				c.mut(&rc)
				res, err := Run(smallSpec("fft"), rc)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			first, second := run(), run()
			if v := first.InvariantViolations; len(v) > 0 {
				t.Fatalf("%d invariant violations, first: %s", len(v), v[0])
			}
			if f1, f2 := fingerprint(t, first), fingerprint(t, second); !bytes.Equal(f1, f2) {
				t.Errorf("run not reproducible:\nfirst:  %s\nsecond: %s", f1, f2)
			}
		})
	}
}
