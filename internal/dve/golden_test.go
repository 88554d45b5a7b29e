package dve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dve/internal/topology"
	"dve/internal/workload"
)

// The replica-directory behaviour lock: one SHA-256 per cell over the ROI
// cycle count and the canonical counters JSON (the fingerprint perfbench
// prints). The cells cover both replica protocol families and the dynamic
// switcher, coarse-grain regions, an oversized directory, and a 16-entry
// directory whose constant eviction exercises the LRU victim order. Any
// change to the replica directory's storage must leave every fingerprint
// unchanged; regenerating the file is a deliberate act recorded in
// CHANGES.md:
//
//	go test ./internal/dve -run TestReplicaGolden -update

var updateGolden = flag.Bool("update", false, "rewrite testdata/replica_golden.json from the current code")

const goldenFile = "testdata/replica_golden.json"

// goldenWarmup and goldenMeasure keep every cell a fraction of a second.
const goldenWarmup, goldenMeasure = 20_000, 60_000

type goldenCell struct {
	name     string
	workload string
	proto    topology.Protocol
	tweak    func(*topology.Config)
}

func goldenCells() []goldenCell {
	var cells []goldenCell
	for _, w := range []string{"graph500", "fft", "canneal"} {
		for _, p := range []topology.Protocol{topology.ProtoAllow, topology.ProtoDeny, topology.ProtoDynamic} {
			cells = append(cells, goldenCell{name: w + "/" + p.String(), workload: w, proto: p})
		}
	}
	return append(cells,
		goldenCell{"graph500/allow/coarse", "graph500", topology.ProtoAllow,
			func(c *topology.Config) { c.CoarseGrain = true }},
		goldenCell{"canneal/allow/rd4096", "canneal", topology.ProtoAllow,
			func(c *topology.Config) { c.ReplicaDirEntries = 4096 }},
		goldenCell{"graph500/deny/rd16", "graph500", topology.ProtoDeny,
			func(c *topology.Config) { c.ReplicaDirEntries = 16 }},
	)
}

// goldenFingerprint hashes the deterministic output of one run exactly as
// perfbench does: "<cycles>\n" followed by the counters JSON.
func goldenFingerprint(t *testing.T, res *Result) string {
	t.Helper()
	b, err := json.Marshal(res.Counters)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%d\n", res.Cycles)
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil))
}

// TestReplicaGolden pins behaviour, not correctness: the post-run coherence
// audit is not part of the fingerprint (graph500/allow/coarse currently ends
// with SWMR and ownership violations, which the lock records as they are).
func TestReplicaGolden(t *testing.T) {
	got := map[string]string{}
	for _, c := range goldenCells() {
		spec, ok := workload.ByName(c.workload, 16)
		if !ok {
			t.Fatalf("unknown workload %q", c.workload)
		}
		cfg := topology.Default(c.proto)
		if c.tweak != nil {
			c.tweak(&cfg)
		}
		res, err := Run(spec, RunConfig{Cfg: cfg, WarmupOps: goldenWarmup, MeasureOps: goldenMeasure})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got[c.name] = goldenFingerprint(t, res)
	}

	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d fingerprints to %s", len(got), goldenFile)
		return
	}

	raw, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("reading %s (regenerate with -update): %v", goldenFile, err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("decoding %s: %v", goldenFile, err)
	}
	if len(want) != len(got) {
		t.Errorf("%s holds %d cells, the test runs %d", goldenFile, len(want), len(got))
	}
	for name, fp := range got {
		if w, ok := want[name]; !ok {
			t.Errorf("%s: no golden fingerprint", name)
		} else if w != fp {
			t.Errorf("%s: fingerprint %s, golden %s", name, fp[:12], w[:12])
		}
	}
}
