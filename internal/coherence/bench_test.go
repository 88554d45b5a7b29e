package coherence

import (
	"testing"

	"dve/internal/cache"
	"dve/internal/topology"
)

// BenchmarkDirectoryLookup measures the home directory's entry path — the
// line index plus the slab dereference — over a populated directory,
// the lookup every coherence transaction starts with.
func BenchmarkDirectoryLookup(b *testing.B) {
	cfg := topology.Default(topology.ProtoBaseline)
	const lines = 1 << 14
	cfg.FootprintHintLines = lines * 2 // both sockets' shares
	s, err := New(&cfg)
	if err != nil {
		b.Fatal(err)
	}
	d := s.Dirs[0]
	step := topology.Line(cfg.LineSizeBytes)
	for i := 0; i < lines; i++ {
		d.entry(topology.Line(i) * step)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if e := d.entry(topology.Line(i&(lines-1)) * step); e.owner != -1 {
			b.Fatal("untouched entry must be unowned")
		}
	}
}

// BenchmarkDirectoryInsert measures first-touch tracking: index insert, slab
// append (amortised), and the first-touch order log.
func BenchmarkDirectoryInsert(b *testing.B) {
	cfg := topology.Default(topology.ProtoBaseline)
	cfg.FootprintHintLines = b.N * cfg.Sockets
	s, err := New(&cfg)
	if err != nil {
		b.Fatal(err)
	}
	d := s.Dirs[0]
	step := topology.Line(cfg.LineSizeBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.entry(topology.Line(i) * step)
	}
}

// TestDirectoryHitAllocs pins the zero-alloc contract of the home
// directory's hit path: finding a tracked line's entry (entry, Entry,
// HasLine) touches only the index and the slabs.
func TestDirectoryHitAllocs(t *testing.T) {
	s := newSys(topology.ProtoBaseline)
	d := s.Dirs[0]
	step := topology.Line(s.Cfg.LineSizeBytes)
	const lines = 4096
	for i := 0; i < lines; i++ {
		d.entry(topology.Line(i) * step)
	}
	i := 0
	hit := func() {
		l := topology.Line(i%lines) * step
		i++
		if d.entry(l).owner != -1 || !d.HasLine(l) {
			t.Fatal("tracked line lost its entry")
		}
		if st, _, _ := d.Entry(l); st != cache.Invalid {
			t.Fatalf("untouched entry in %v, want Invalid", st)
		}
	}
	if a := testing.AllocsPerRun(1000, hit); a != 0 {
		t.Fatalf("directory hit path: %v allocs, want 0", a)
	}
}
