package main

import (
	"fmt"
	"sort"
)

// metricDef describes one reported metric.
type metricDef struct{ name, unit, better string }

// endToEnd are the untraced run's metrics (--trace 0): what a user of the
// simulator sees. A sample is one simulation run or one fabric sweep.
var endToEnd = []metricDef{
	{"sim_ops_per_s", "ops/s", "higher"},    // simulated ops per host second, median over samples
	{"cpu_s_per_mop", "s/Mop", "lower"},     // process CPU seconds per million simulated ops, median
	{"allocs_per_op", "allocs/op", "lower"}, // heap allocations per simulated op, median
	{"bytes_per_op", "B/op", "lower"},       // heap bytes per simulated op, median
	{"peak_rss_mb", "MiB", "lower"},         // peak resident set of the process
	{"setup_s", "s", "lower"},               // median set-up time
	{"sweep_s", "s", "lower"},               // median sample wall time
	{"cell_p50_s", "s", "lower"},            // per-cell latency, median
}

// probeDefs are the layer probes: public entry points timed on the
// workload's own address stream (see probes.go).
var probeDefs = []string{
	"workload.next", "cache.sa.l1_lookup", "cache.sa.l1_insert",
	"cache.sa.llc_lookup", "cache.sa.llc_insert", "cache.fa.lookup",
	"cache.fa.insert", "sim.schedule_run", "mem.read", "noc.send",
}

// perLayer are the traced run's metrics (--trace 1), each describing one
// layer. The host-time pair for every
// layer comes first; the rest name the layer they describe as a prefix,
// and the probe pairs come last.
var perLayer = func() []metricDef {
	var out []metricDef
	for _, l := range layers {
		out = append(out,
			metricDef{l + ".host_share", "ratio", "lower"},
			metricDef{l + ".host_s", "s", "lower"})
	}
	out = append(out, []metricDef{
		{"profile.samples", "count", "higher"},
		{"trace_overhead", "ratio", "lower"},
		{"fail_ratio", "ratio", "lower"},
		{"sim.worker_speedup", "ratio", "higher"},
		{"sim.epochs", "count", "lower"},
		{"sim.ops_per_epoch", "ops", "higher"},
		{"sim.barrier_stall_ratio", "ratio", "lower"},
		{"cache.l1_hit_ratio", "ratio", "higher"},
		{"cache.llc_hit_ratio", "ratio", "higher"},
		{"dve.rd_hit_ratio", "ratio", "higher"},
		{"dve.replica_read_ratio", "ratio", "higher"},
		{"dve.spec_squash_ratio", "ratio", "lower"},
		{"dve.dual_wb_per_kop", "1/kop", "lower"},
		{"mem.row_hit_ratio", "ratio", "higher"},
		{"mem.dram_reads_per_op", "1/op", "lower"},
		{"noc.link_msgs_per_op", "1/op", "lower"},
		{"noc.link_bytes_per_op", "B/op", "lower"},
		{"serve.ready_s", "s", "lower"},
		{"serve.post_run_s", "s", "lower"},
		{"serve.queue_wait_p50_s", "s", "lower"},
		{"serve.cell_p90_s", "s", "lower"},
		{"experiments.cell_run_p50_s", "s", "lower"},
		{"results.get_p50_s", "s", "lower"},
	}...)
	for _, p := range probeDefs {
		out = append(out,
			metricDef{p + "_ns", "ns/call", "lower"},
			metricDef{p + "_allocs", "allocs/call", "lower"})
	}
	return out
}()

// metricValue is one entry of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// metricSet collects the values of one mode's metrics.
type metricSet struct {
	defs   map[string]metricDef
	values map[string]metricValue
}

func newMetricSet(traced bool) *metricSet {
	m := &metricSet{defs: map[string]metricDef{}, values: map[string]metricValue{}}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		m.defs[d.name] = d
	}
	return m
}

// set records a metric. Naming a metric outside the mode's catalogue is a
// programming error.
func (m *metricSet) set(name string, v float64) {
	d, ok := m.defs[name]
	if !ok {
		panic(fmt.Sprintf("perfbench: metric %q is not in this mode's catalogue", name))
	}
	m.values[name] = metricValue{Value: v, Unit: d.unit}
}

// missing lists catalogue metrics that were never set.
func (m *metricSet) missing() []string {
	var out []string
	for name := range m.defs {
		if _, ok := m.values[name]; !ok {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}
