// Command perfbench is the repository's benchmark. It drives the simulator
// through its public entry points only — dve.Simulate and the internal/dve
// runner under the default engine selection, and the sweep service over
// loopback HTTP — on four workloads, checks every output, and prints one
// JSON line of metrics.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 measures the end-to-end metrics; --trace 1 is a separate run
// that profiles the process and reports per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	idve "dve/internal/dve"
	"dve/internal/experiments"
	"dve/internal/topology"
)

// simWorkload is one single-simulation workload: a suite benchmark under
// one protocol.
type simWorkload struct {
	bench string
	proto topology.Protocol
}

// simWorkloads are chosen to load different layers; README.md says why.
var simWorkloads = map[string]simWorkload{
	"replica-read":   {"graph500", topology.ProtoDeny},
	"local-baseline": {"fft", topology.ProtoBaseline},
	"write-switch":   {"canneal", topology.ProtoDynamic},
}

const fabricWorkload = "fabric-sweep"

func workloadNames() []string {
	names := []string{fabricWorkload}
	for n := range simWorkloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// config is one benchmark invocation. The size fields are fixed by the
// command line defaults; tests shrink them.
type config struct {
	workload string
	seed     int64 // 0 keeps the suite seeds
	seconds  float64
	trace    bool
	workdir  string

	simScale    experiments.Scale // per simulation-workload run
	fabricScale experiments.Scale // per fabric cell
	setupReps   int               // minimal runs (or server starts) per set-up median
	minSamples  int               // timed samples per run, at least
	profileCPU  time.Duration     // CPU time the traced run profiles, at least
	probeOps    int               // calls per layer probe
}

func defaultConfig() config {
	return config{
		simScale:    experiments.Standard,
		fabricScale: experiments.Scale{WarmupOps: 5_000, MeasureOps: 15_000},
		setupReps:   51,
		minSamples:  3,
		// 100 Hz sampling: 11 CPU seconds give over 1000 samples.
		profileCPU: 11 * time.Second,
		probeOps:   200_000,
	}
}

func main() {
	c := defaultConfig()
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&c.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&c.seed, "seed", 0, "workload seed overriding every spec's seed (0 keeps the suite seeds)")
	fs.Float64Var(&c.seconds, "seconds", 20, "measurement window in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced (profiled) variant and reports per-layer metrics")
	fs.StringVar(&c.workdir, "workdir", filepath.Join(".bench_build", "work"), "directory for result caches and span files")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	c.trace = *trace == 1
	res, err := run(c, os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one invocation: it writes a header and per-sample notes to
// info, diagnostics to errw, and returns the result line.
func run(c config, info, errw io.Writer) (*result, error) {
	w, isSim := simWorkloads[c.workload]
	if !isSim && c.workload != fabricWorkload {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", c.workload, strings.Join(workloadNames(), ", "))
	}
	if c.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	if err := os.MkdirAll(c.workdir, 0o755); err != nil {
		return nil, err
	}
	fmt.Fprintf(info, "# perfbench workload=%s seed=%d trace=%t nproc=%d gomaxprocs=%d go=%s\n",
		c.workload, c.seed, c.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	b := &bench{c: c, info: info, v: newVerifier(errw), m: newMetricSet(c.trace)}
	var err error
	if isSim {
		err = b.runSim(w)
	} else {
		err = b.runFabric()
	}
	if err != nil {
		return nil, err
	}
	if c.trace {
		b.m.set("fail_ratio", ratio(float64(b.v.failed), float64(b.v.attempted)))
	}
	if miss := b.m.missing(); len(miss) > 0 {
		return nil, fmt.Errorf("metrics not measured: %s", strings.Join(miss, ", "))
	}
	mode := 0
	if c.trace {
		mode = 1
	}
	spanFile := filepath.Join(c.workdir, fmt.Sprintf("spans-%s-seed%d-trace%d.jsonl", c.workload, c.seed, mode))
	if err := b.sp.write(spanFile); err != nil {
		return nil, err
	}
	return &result{
		Correct:   b.v.failed == 0 && b.v.attempted > 0,
		Attempted: b.v.attempted,
		Failed:    b.v.failed,
		Metrics:   b.m.values,
	}, nil
}

// bench is the state of one invocation.
type bench struct {
	c    config
	info io.Writer
	v    *verifier
	m    *metricSet
	sp   spans
}

// verifier checks every simulated result: no error, no coherence invariant
// violation, and the same output fingerprint and engine as every other run
// of the same cell in this process. Cells are keyed by workload and
// configuration, never by engine label.
type verifier struct {
	attempted, failed int
	fp                map[string]string // cell -> fingerprint
	engine            map[string]string // cell -> engine/workers of default-engine runs
	errw              io.Writer
}

func newVerifier(errw io.Writer) *verifier {
	return &verifier{fp: map[string]string{}, engine: map[string]string{}, errw: errw}
}

func (v *verifier) fail(cell, format string, args ...any) {
	v.failed++
	fmt.Fprintf(v.errw, "perfbench: FAIL %s: %s\n", cell, fmt.Sprintf(format, args...))
}

// check verifies one run of cell. defaultEngine marks runs under the
// default engine selection, whose engine and worker count must also agree.
func (v *verifier) check(cell string, res *idve.Result, err error, defaultEngine bool) bool {
	v.attempted++
	if err != nil {
		v.fail(cell, "%v", err)
		return false
	}
	if n := len(res.InvariantViolations); n > 0 {
		v.fail(cell, "%d coherence invariant violations, first: %s", n, res.InvariantViolations[0])
		return false
	}
	fp, err := fingerprint(res)
	if err != nil {
		v.fail(cell, "%v", err)
		return false
	}
	if want, ok := v.fp[cell]; !ok {
		v.fp[cell] = fp
	} else if fp != want {
		v.fail(cell, "fingerprint %s differs from %s", fp[:12], want[:12])
		return false
	}
	if defaultEngine {
		eng := fmt.Sprintf("%s/%d", res.Engine, res.Workers)
		if want, ok := v.engine[cell]; !ok {
			v.engine[cell] = eng
		} else if eng != want {
			v.fail(cell, "engine %s differs from %s", eng, want)
			return false
		}
	}
	return true
}

// span is one timed interval of the benchmark's own calls into a layer.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// spans records intervals in memory, relative to the first one, and writes
// them out when the run ends. The benchmark's client loop is sequential, so
// no locking is needed.
type spans struct {
	t0   time.Time
	list []span
}

// add records [start, end) under parent (0 for none) and returns its ID.
func (s *spans) add(name string, parent int, start, end time.Time) int {
	if s.t0.IsZero() {
		s.t0 = start
	}
	id := len(s.list) + 1
	s.list = append(s.list, span{ID: id, Parent: parent, Name: name,
		Start: start.Sub(s.t0).Seconds(), End: end.Sub(s.t0).Seconds()})
	return id
}

// write stores the spans as JSON lines.
func (s *spans) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, sp := range s.list {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	return f.Close()
}
