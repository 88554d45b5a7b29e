package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"testing"
	"time"

	idve "dve/internal/dve"
	"dve/internal/experiments"
)

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for q, want := range map[float64]float64{0: 1, 0.25: 2, 0.5: 3, 0.9: 4.6, 1: 5} {
		if got := quantile(xs, q); math.Abs(got-want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile reordered its input")
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
}

func TestPercentileSampleRule(t *testing.T) {
	cases := []struct {
		q    float64
		n    int
		tail int
		ok   bool
	}{
		{0.9, 100, 10, true}, // one fabric sweep: ten cells beyond p90
		{0.9, 99, 9, false},
		{0.9, 12, 1, false}, // a window of simulation runs
		{0.5, 20, 10, true},
		{0.5, 19, 9, false},
		{0.99, 1000, 10, true},
	}
	for _, c := range cases {
		if got := tailSamples(c.q, c.n); got != c.tail {
			t.Errorf("tailSamples(%v, %d) = %d, want %d", c.q, c.n, got, c.tail)
		}
		if got := tailSamples(c.q, c.n) >= minTail; got != c.ok {
			t.Errorf("p%v of %d samples counts as measured = %v, want %v", c.q*100, c.n, got, c.ok)
		}
	}
}

func TestVerifierCountsFailures(t *testing.T) {
	var log bytes.Buffer
	v := newVerifier(&log)
	good := &idve.Result{Cycles: 100, Engine: "partitioned", Workers: 2}
	good.Counters.Ops = 7
	same := *good
	otherEngine := *good
	otherEngine.Workers = 1
	drift := *good
	drift.Cycles = 101
	broken := *good
	broken.InvariantViolations = []string{"SWMR"}

	steps := []struct {
		cell   string
		res    *idve.Result
		err    error
		dflt   bool
		wantOK bool
	}{
		{"a", good, nil, false, true},               // serial reference
		{"a", &same, nil, true, true},               // default run, same output
		{"a", &otherEngine, nil, true, false},       // same output, other worker count
		{"a", &drift, nil, true, false},             // output differs
		{"a", &broken, nil, true, false},            // invariant violation
		{"a", nil, errors.New("boom"), true, false}, // run error
		{"b", &drift, nil, true, true},              // another cell has its own reference
	}
	for i, s := range steps {
		if got := v.check(s.cell, s.res, s.err, s.dflt); got != s.wantOK {
			t.Errorf("step %d: check = %v, want %v", i, got, s.wantOK)
		}
	}
	if v.attempted != 7 || v.failed != 4 {
		t.Errorf("attempted, failed = %d, %d; want 7, 4", v.attempted, v.failed)
	}
	b := &bench{v: v, m: newMetricSet(true)}
	b.m.set("fail_ratio", ratio(float64(b.v.failed), float64(b.v.attempted)))
	if got := b.m.values["fail_ratio"].Value; math.Abs(got-4.0/7) > 1e-12 {
		t.Errorf("fail_ratio = %v, want 4/7", got)
	}
}

// benchmarkFile is the part of BENCHMARK.json the catalogue must match.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func TestCatalogueMatchesBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if got, want := len(names), len(workloadNames()); got != want {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", got, want)
	}
	for _, n := range names {
		if _, ok := simWorkloads[n]; !ok && n != fabricWorkload {
			t.Errorf("BENCHMARK.json workload %q is unknown", n)
		}
	}
	check := func(kind string, file []struct{ Name, Unit, Better string }, defs []metricDef) {
		if len(file) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the catalogue %d", kind, len(file), len(defs))
			return
		}
		for i, d := range defs {
			if f := file[i]; f.Name != d.name || f.Unit != d.unit || f.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, catalogue %+v", kind, i, f, d)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
}

// tinyConfig shrinks every size so a smoke run takes seconds.
func tinyConfig(workload string, trace bool, workdir string) config {
	c := defaultConfig()
	c.workload, c.seed, c.seconds, c.trace, c.workdir = workload, 7, 0.01, trace, workdir
	c.simScale = experiments.Scale{WarmupOps: 1_000, MeasureOps: 2_000}
	c.fabricScale = experiments.Scale{WarmupOps: 200, MeasureOps: 400}
	c.setupReps, c.minSamples = 2, 1
	c.profileCPU = 0
	c.probeOps = 2_000
	return c
}

func TestSmokeEveryMetricPrinted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloadNames() {
		for _, trace := range []bool{false, true} {
			c := tinyConfig(w, trace, t.TempDir())
			var info, errw bytes.Buffer
			start := time.Now()
			res, err := run(c, &info, &errw)
			if err != nil {
				t.Fatalf("%s trace=%t: %v\n%s", w, trace, err, errw.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d\n%s",
					w, trace, res.Correct, res.Attempted, res.Failed, errw.String())
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%t: %d metrics printed, want %d", w, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%t: metric %s missing", w, trace, d.name)
				case m.Unit != d.unit:
					t.Errorf("%s trace=%t: %s unit %q, want %q", w, trace, d.name, m.Unit, d.unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0:
					t.Errorf("%s trace=%t: %s = %v", w, trace, d.name, m.Value)
				case !trace && m.Value == 0:
					t.Errorf("%s: end-to-end metric %s is 0", w, d.name)
				}
			}
			if _, err := json.Marshal(res); err != nil {
				t.Errorf("%s trace=%t: result does not encode: %v", w, trace, err)
			}
			t.Logf("%s trace=%t: %v, attempted %d\n%s", w, trace, time.Since(start).Round(time.Millisecond), res.Attempted, info.String())
		}
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	c := tinyConfig("no-such-workload", false, t.TempDir())
	if _, err := run(c, io.Discard, io.Discard); err == nil {
		t.Error("unknown workload accepted")
	}
	c = tinyConfig("local-baseline", false, t.TempDir())
	c.seconds = 0
	if _, err := run(c, io.Discard, io.Discard); err == nil {
		t.Error("zero seconds accepted")
	}
}
