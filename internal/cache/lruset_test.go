package cache

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"dve/internal/topology"
)

// The linear fully associative array (NewFullyAssoc) is the reference: an
// LRUSet driven by the same calls must hold the same lines in the same
// recency order, so it evicts the same victims.

// refOrder returns the reference array's valid lines from least to most
// recently used.
func refOrder(c *Cache) []topology.Line {
	var es []Entry
	c.ForEach(func(e *Entry) bool { es = append(es, *e); return true })
	sort.Slice(es, func(i, j int) bool { return es[i].lru < es[j].lru })
	out := make([]topology.Line, len(es))
	for i, e := range es {
		out[i] = e.Line
	}
	return out
}

// setOrder walks the recency list from least to most recently used,
// checking the list, the free stack and the index against each other.
func setOrder(t testing.TB, s *LRUSet) []topology.Line {
	t.Helper()
	var out []topology.Line
	prev := int32(-1)
	for slot := s.head; slot >= 0; slot = s.next[slot] {
		if s.prev[slot] != prev {
			t.Fatalf("slot %d: prev %d, want %d", slot, s.prev[slot], prev)
		}
		if got, _ := s.index.Get(s.lines[slot], s.lines); got != slot {
			t.Fatalf("line %#x: index names slot %d, want %d", s.lines[slot], got, slot)
		}
		out = append(out, s.lines[slot])
		prev = slot
		if len(out) > len(s.lines) {
			t.Fatal("recency list has a cycle")
		}
	}
	if s.tail != prev {
		t.Fatalf("tail %d, want %d", s.tail, prev)
	}
	if len(out) != s.Len() || len(out)+len(s.free) != len(s.lines) {
		t.Fatalf("list holds %d, Len %d, free %d, capacity %d", len(out), s.Len(), len(s.free), len(s.lines))
	}
	indexed := 0
	for _, pos := range s.index.tab {
		if pos != 0 {
			indexed++
		}
	}
	if indexed != s.Len() {
		t.Fatalf("index holds %d slots, Len %d", indexed, s.Len())
	}
	return out
}

func sameOrder(t testing.TB, step int, s *LRUSet, ref *Cache) {
	t.Helper()
	got, want := setOrder(t, s), refOrder(ref)
	if len(got) != len(want) {
		t.Fatalf("step %d: %d resident lines, reference %d", step, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("step %d: recency position %d holds %#x, reference %#x", step, i, got[i], want[i])
		}
	}
}

// lruOp applies one operation to both structures and fails on any
// disagreement. op selects the call. A caller may mutate the reference's
// returned entry; an LRUSet stores no state, so that must not be observable.
func lruOp(t testing.TB, step int, s *LRUSet, ref *Cache, op byte, l topology.Line) {
	t.Helper()
	switch op {
	case 0, 1, 2:
		if got, want := s.Lookup(l), ref.Lookup(l) != nil; got != want {
			t.Fatalf("step %d: Lookup(%#x) = %v, reference %v", step, l, got, want)
		}
	case 3, 4, 5:
		st := State(1 + int(l/64)%4) // never Invalid
		s.Insert(l)
		e, _, _ := ref.Insert(l, st)
		e.State = st
	case 6:
		if got, want := s.Invalidate(l), ref.Invalidate(l); got != want {
			t.Fatalf("step %d: Invalidate(%#x) = %v, reference %v", step, l, got, want)
		}
	case 7:
		s.Clear()
		ref.Clear()
	}
	if got, want := s.Len(), ref.Occupancy(); got != want {
		t.Fatalf("step %d: Len %d, reference occupancy %d", step, got, want)
	}
}

func TestLRUSetMatchesFullyAssoc(t *testing.T) {
	for _, capacity := range []int{1, 4, 64, 2048} {
		rng := rand.New(rand.NewSource(int64(capacity)))
		s, ref := NewLRUSet(capacity), NewFullyAssoc(capacity, 64)
		steps := 20_000
		if capacity == 2048 {
			steps = 60_000
		}
		universe := 3 * capacity
		for i := 0; i < steps; i++ {
			l := line(uint64(rng.Intn(universe)))
			op := byte(rng.Intn(7))
			if rng.Intn(steps/4) == 0 {
				op = 7
			}
			lruOp(t, i, s, ref, op, l)
			if i%997 == 0 || capacity <= 4 {
				sameOrder(t, i, s, ref)
			}
		}
		sameOrder(t, steps, s, ref)
	}
}

func TestNewLRUSetRejectsEmptyCapacity(t *testing.T) {
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "LRUSet capacity") {
					t.Errorf("NewLRUSet(%d) panic %q, want a capacity message", n, msg)
				}
			}()
			NewLRUSet(n)
		}()
	}
}

// TestLRUSetZeroAllocs pins the steady-state contract at the replica
// directory's default size: lookups, inserts that evict, and
// invalidations allocate nothing.
func TestLRUSetZeroAllocs(t *testing.T) {
	const capacity = 2048
	s := NewLRUSet(capacity)
	for i := 0; i < capacity; i++ {
		s.Insert(line(uint64(i)))
	}
	next := uint64(capacity)
	cases := []struct {
		name string
		fn   func()
	}{
		{"Lookup", func() { s.Lookup(line(next % (2 * capacity))); next++ }},
		{"Insert-evict", func() { s.Insert(line(next)); next++ }},
		{"Invalidate", func() { s.Invalidate(line(next - capacity)); s.Insert(line(next)); next++ }},
	}
	for _, c := range cases {
		if a := testing.AllocsPerRun(5000, c.fn); a != 0 {
			t.Errorf("%s: %v allocs/op, want 0", c.name, a)
		}
	}
	if s.Len() != capacity {
		t.Fatalf("Len %d after churn, want %d", s.Len(), capacity)
	}
}

// FuzzLRUSet decodes bytes into a capacity and an operation sequence and
// checks every step against the linear reference. The seed corpus runs
// under plain go test.
func FuzzLRUSet(f *testing.F) {
	f.Add([]byte{0, 3, 0, 3, 1, 0, 0, 3, 2, 6, 1, 0, 1})
	f.Add([]byte{3, 3, 0, 3, 1, 3, 2, 3, 3, 0, 0, 3, 4, 0, 1, 6, 2, 3, 5, 7, 0, 3, 6})
	f.Add([]byte{15, 4, 1, 4, 17, 4, 33, 4, 49, 0, 1, 6, 17, 5, 65, 1, 33, 6, 1, 4, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		capacity := 1 + int(data[0]%16)
		s, ref := NewLRUSet(capacity), NewFullyAssoc(capacity, 64)
		for i := 1; i+1 < len(data); i += 2 {
			l := line(uint64(data[i+1]) % uint64(3*capacity))
			lruOp(t, i/2, s, ref, data[i]%8, l)
			sameOrder(t, i/2, s, ref)
		}
	})
}

var sinkBool bool

// BenchmarkLRUSet times the replica directory's operations at its default
// size against a line universe twice the capacity, so about half of the
// lookups miss and every new insert evicts. Invalidate re-inserts each line
// to keep the set full.
func BenchmarkLRUSet(b *testing.B) {
	const capacity = 2048
	lines := make([]topology.Line, 1<<16)
	rng := rand.New(rand.NewSource(1))
	for i := range lines {
		lines[i] = line(uint64(rng.Intn(2 * capacity)))
	}
	fill := func() *LRUSet {
		s := NewLRUSet(capacity)
		for i := 0; i < capacity; i++ {
			s.Insert(line(uint64(i)))
		}
		return s
	}
	b.Run("Lookup", func(b *testing.B) {
		s := fill()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkBool = s.Lookup(lines[i&(len(lines)-1)])
		}
	})
	b.Run("Insert", func(b *testing.B) {
		s := fill()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Insert(lines[i&(len(lines)-1)])
		}
	})
	b.Run("Invalidate", func(b *testing.B) {
		s := fill()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l := lines[i&(len(lines)-1)]
			sinkBool = s.Invalidate(l)
			s.Insert(l)
		}
	})
}
