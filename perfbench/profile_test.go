package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"testing"
)

func TestAttribute(t *testing.T) {
	cases := []struct {
		name  string
		stack []string // innermost first
		want  string
	}{
		{"innermost repo frame wins", []string{
			"dve/internal/sim.(*Engine).push",
			"dve/internal/coherence.(*System).Access",
			"main.main",
		}, "sim"},
		{"allocation counts against its caller", []string{
			"runtime.memclrNoHeapPointers",
			"runtime.mallocgc",
			"dve/internal/coherence.New",
			"dve/internal/dve.Run",
		}, "coherence"},
		{"map probe counts against its caller", []string{
			"internal/runtime/maps.h2",
			"runtime.mapaccess2_fast64",
			"dve/internal/mem.(*Controller).Read",
		}, "mem"},
		{"cache reached from the replica directory is fully associative", []string{
			"dve/internal/cache.(*Cache).Insert",
			"dve/internal/dve.(*ReplicaDir).insertEntry",
			"dve/internal/coherence.(*HomeDir).handle",
		}, "cache.fa"},
		{"cache reached through a helper from the replica directory", []string{
			"dve/internal/cache.(*Cache).Lookup",
			"dve/internal/stats.helper",
			"dve/internal/dve.(*ReplicaDir).LocalGETS",
		}, "cache.fa"},
		{"cache reached from coherence is set associative", []string{
			"dve/internal/cache.(*Cache).Lookup",
			"dve/internal/coherence.(*LLC).fill",
			"dve/internal/dve.(*ReplicaDir).LocalGETS",
		}, "cache.sa"},
		{"cache with no layer above it is set associative", []string{
			"dve/internal/cache.(*Cache).Lookup",
		}, "cache.sa"},
		{"helper packages are transparent", []string{
			"dve/internal/stats.(*Histogram).Add",
			"dve/internal/telemetry.CountersSnapshot",
			"dve/internal/dve.Run",
		}, "dve"},
		{"no repo frame is runtime", []string{
			"runtime.scanobject",
			"runtime.gcBgMarkWorker",
		}, "runtime"},
		{"stdlib under the benchmark is the benchmark", []string{
			"net/http.(*Client).Do",
			"main.(*fabricServer).get",
		}, "bench"},
		{"empty stack is runtime", nil, "runtime"},
	}
	for _, c := range cases {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("%s: attribute = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"dve/internal/cache.(*Cache).Lookup":          "dve/internal/cache",
		"dve/internal/dve.(*ReplicaDir).f.func1":      "dve/internal/dve",
		"runtime.mallocgc":                            "runtime",
		"net/http.(*conn).serve":                      "net/http",
		"main.main":                                   "main",
		"dve.Simulate":                                "dve",
		"dve/internal/sim.(*ParallelEngine).Run[...]": "dve/internal/sim",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

// pb is a minimal protobuf encoder for building synthetic profiles.
type pb []byte

func (b pb) varint(field int, v uint64) pb {
	b = binary.AppendUvarint(b, uint64(field)<<3)
	return binary.AppendUvarint(b, v)
}

func (b pb) bytes(field int, v []byte) pb {
	b = binary.AppendUvarint(b, uint64(field)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

func (b pb) packed(field int, vs ...uint64) pb {
	var inner []byte
	for _, v := range vs {
		inner = binary.AppendUvarint(inner, v)
	}
	return b.bytes(field, inner)
}

func TestParseCPUProfile(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"dve/internal/cache.(*Cache).Insert", "dve/internal/dve.(*ReplicaDir).insertEntry",
		"dve/internal/sim.(*Engine).Run", "runtime.gcBgMarkWorker"}
	var p pb
	p = p.bytes(fProfileSampleType, pb(nil).varint(fValueTypeType, 1).varint(2, 2))
	p = p.bytes(fProfileSampleType, pb(nil).varint(fValueTypeType, 3).varint(2, 4))
	// Functions 1..4 name strings 5..8.
	for id := uint64(1); id <= 4; id++ {
		p = p.bytes(fProfileFunction, pb(nil).varint(fFunctionID, id).varint(fFunctionName, id+4))
	}
	// Location 1 inlines cache.Insert (innermost) into ReplicaDir.insertEntry;
	// location 2 is the engine, location 3 a GC worker.
	p = p.bytes(fProfileLocation, pb(nil).varint(fLocationID, 1).
		bytes(fLocationLine, pb(nil).varint(fLineFunction, 1)).
		bytes(fLocationLine, pb(nil).varint(fLineFunction, 2)))
	p = p.bytes(fProfileLocation, pb(nil).varint(fLocationID, 2).bytes(fLocationLine, pb(nil).varint(fLineFunction, 3)))
	p = p.bytes(fProfileLocation, pb(nil).varint(fLocationID, 3).bytes(fLocationLine, pb(nil).varint(fLineFunction, 4)))
	// Samples: packed and unpacked location lists both occur in the wild.
	p = p.bytes(fProfileSample, pb(nil).packed(fSampleLocation, 1, 2).packed(fSampleValue, 3, 30_000_000))
	p = p.bytes(fProfileSample, pb(nil).varint(fSampleLocation, 2).packed(fSampleValue, 1, 10_000_000))
	p = p.bytes(fProfileSample, pb(nil).packed(fSampleLocation, 3).packed(fSampleValue, 2, 20_000_000))
	for _, s := range strs {
		p = p.bytes(fProfileString, []byte(s))
	}
	p = p.varint(fProfilePeriod, 10_000_000)

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p)
	zw.Close()

	samples, err := parseCPUProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 3 {
		t.Fatalf("got %d samples, want 3", len(samples))
	}
	want0 := []string{strs[5], strs[6], strs[7]}
	if got := samples[0].stack; len(got) != 3 || got[0] != want0[0] || got[1] != want0[1] || got[2] != want0[2] {
		t.Errorf("sample 0 stack = %q, want %q", got, want0)
	}
	lc := attributeAll(samples)
	if lc.samples != 6 || lc.total != 60_000_000 {
		t.Errorf("samples, total = %d, %d; want 6, 60000000", lc.samples, lc.total)
	}
	for layer, want := range map[string]float64{"cache.fa": 0.5, "sim": 1.0 / 6, "runtime": 1.0 / 3, "cache.sa": 0} {
		if got := lc.share(layer); got < want-1e-9 || got > want+1e-9 {
			t.Errorf("share(%s) = %v, want %v", layer, got, want)
		}
	}
}

func TestParseCPUProfileRejectsGarbage(t *testing.T) {
	if _, err := parseCPUProfile([]byte("not a profile")); err == nil {
		t.Error("parsing garbage succeeded")
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write([]byte{0x12, 0x05, 0x01}) // length 5, one byte present
	zw.Close()
	if _, err := parseCPUProfile(gz.Bytes()); err == nil {
		t.Error("parsing a truncated field succeeded")
	}
}
