package perf

import (
	"os"
	"testing"
)

// schema2Report is a report as written before runs lost their engine
// family, including the "workers" key of even older runs.
const schema2Report = `{"schema": 2, "scale": "quick", "go_version": "go1.24.0",
 "goos": "linux", "goarch": "amd64", "gomaxprocs": 1, "runs": [
 {"workload": "fft", "protocol": "baseline", "engine": "partitioned", "workers": 2,
  "ops": 170000, "cycles": 997667, "wall_ms": 900.5, "ops_per_sec": 188000,
  "allocs_per_op": 2.7, "bytes_per_op": 80.1}]}`

// TestLoadReportReadsOlderSchemas: a schema-2 report decodes, its engine
// and workers keys are ignored, and it compares against a schema-3 run of
// the same cell.
func TestLoadReportReadsOlderSchemas(t *testing.T) {
	rep, err := decodeReport("schema2", []byte(schema2Report))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != 2 || len(rep.Runs) != 1 || rep.Runs[0].Cycles != 997667 {
		t.Fatalf("decoded %+v", rep)
	}
	fresh := NewReport("quick")
	fresh.Add(rep.Runs[0])
	if regs := Compare(rep, fresh, Tolerance{}); len(regs) != 0 {
		t.Fatalf("same run reported as %v", regs)
	}
	for _, bad := range []string{`{"schema": 0}`, `{"schema": 4}`, `{"schema": "3"}`, `[`} {
		if _, err := decodeReport("bad", []byte(bad)); err == nil {
			t.Errorf("%s decoded without error", bad)
		}
	}
}

// FuzzLoadReport: any input either fails to decode or yields a report of a
// known schema that Compare and FormatRegressions accept; none panics.
func FuzzLoadReport(f *testing.F) {
	if b, err := os.ReadFile("../../BENCH_quick.json"); err == nil {
		f.Add(b)
	}
	f.Add([]byte(schema2Report))
	f.Add([]byte(`{"schema": 3, "runs": null}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		rep, err := decodeReport("fuzz", b)
		if err != nil {
			return
		}
		if rep == nil || rep.Schema < 1 || rep.Schema > 3 {
			t.Fatalf("decoded report %+v", rep)
		}
		regs := Compare(rep, rep, Tolerance{})
		_ = FormatRegressions(regs, len(rep.Runs))
	})
}
