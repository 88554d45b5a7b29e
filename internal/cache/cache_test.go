package cache

import (
	"testing"
	"testing/quick"

	"dve/internal/topology"
)

func line(n uint64) topology.Line { return topology.Line(n * 64) }

func TestLookupMissThenHit(t *testing.T) {
	c := New(1024, 2, 64) // 8 sets x 2 ways
	if c.Lookup(line(1)) != nil {
		t.Fatal("unexpected hit in empty cache")
	}
	c.Insert(line(1), Shared)
	e := c.Lookup(line(1))
	if e == nil || e.State != Shared {
		t.Fatal("expected hit in Shared")
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", c.Hits, c.Misses)
	}
}

func TestInsertEvictsLRU(t *testing.T) {
	c := New(128, 2, 64) // 1 set x 2 ways
	c.Insert(line(0), Shared)
	c.Insert(line(1), Modified)
	c.Lookup(line(0)) // touch 0, making 1 the LRU
	_, victim, ok := c.Insert(line(2), Shared)
	if !ok {
		t.Fatal("expected eviction")
	}
	if victim.Line != line(1) || victim.State != Modified {
		t.Fatalf("evicted %v/%v, want line 1 in M", victim.Line, victim.State)
	}
	if c.Peek(line(0)) == nil || c.Peek(line(2)) == nil {
		t.Fatal("wrong resident set after eviction")
	}
}

func TestVictimForMatchesInsert(t *testing.T) {
	c := New(128, 2, 64)
	c.Insert(line(0), Shared)
	c.Insert(line(1), Shared)
	v, ok := c.VictimFor(line(2))
	if !ok || v.Line != line(0) {
		t.Fatalf("VictimFor = %v/%v, want line 0", v.Line, ok)
	}
	_, victim, ok2 := c.Insert(line(2), Shared)
	if !ok2 || victim.Line != v.Line {
		t.Fatal("VictimFor disagreed with Insert")
	}
	// Already-present or free-slot cases produce no victim.
	if _, ok := c.VictimFor(line(2)); ok {
		t.Fatal("VictimFor on resident line should report no victim")
	}
}

func TestInsertExistingUpgrades(t *testing.T) {
	c := New(1024, 2, 64)
	c.Insert(line(5), Shared)
	e, _, ok := c.Insert(line(5), Modified)
	if ok {
		t.Fatal("re-insert should not evict")
	}
	if e.State != Modified {
		t.Fatalf("state = %v, want M", e.State)
	}
	if c.Occupancy() != 1 {
		t.Fatalf("occupancy = %d, want 1", c.Occupancy())
	}
}

func TestInvalidate(t *testing.T) {
	c := New(1024, 2, 64)
	c.Insert(line(3), Owned)
	if !c.Invalidate(line(3)) {
		t.Fatal("Invalidate missed a resident line")
	}
	if c.Invalidate(line(3)) {
		t.Fatal("Invalidate hit an invalid line")
	}
	if c.Lookup(line(3)) != nil {
		t.Fatal("line readable after invalidate")
	}
}

func TestFullyAssoc(t *testing.T) {
	c := NewFullyAssoc(4, 64)
	for i := uint64(0); i < 4; i++ {
		c.Insert(line(i*1000), Shared) // wildly different sets if indexed
	}
	if c.Occupancy() != 4 {
		t.Fatalf("occupancy = %d, want 4", c.Occupancy())
	}
	_, victim, ok := c.Insert(line(9999), Shared)
	if !ok || victim.Line != line(0) {
		t.Fatalf("expected LRU eviction of line 0, got %v/%v", victim.Line, ok)
	}
}

func TestForEachAndClear(t *testing.T) {
	c := NewFullyAssoc(8, 64)
	for i := uint64(0); i < 5; i++ {
		c.Insert(line(i), Shared)
	}
	n := 0
	c.ForEach(func(e *Entry) bool { n++; return true })
	if n != 5 {
		t.Fatalf("ForEach visited %d, want 5", n)
	}
	n = 0
	c.ForEach(func(e *Entry) bool { n++; return false })
	if n != 1 {
		t.Fatalf("ForEach early-stop visited %d, want 1", n)
	}
	c.Clear()
	if c.Occupancy() != 0 {
		t.Fatal("Clear left valid entries")
	}
}

func TestStateHelpers(t *testing.T) {
	if !Shared.Readable() || !Modified.Readable() || !Owned.Readable() {
		t.Fatal("S/M/O must be readable")
	}
	if Invalid.Readable() || RemoteModified.Readable() {
		t.Fatal("I/RM must not be readable")
	}
	if !Modified.Writable() || Shared.Writable() {
		t.Fatal("writable wrong")
	}
	for s, want := range map[State]string{Invalid: "I", Shared: "S", Owned: "O", Modified: "M", RemoteModified: "RM", State(9): "?"} {
		if s.String() != want {
			t.Errorf("State(%d).String() = %q, want %q", s, s.String(), want)
		}
	}
}

func TestNewPanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-power-of-two sets")
		}
	}()
	New(192, 1, 64) // 3 sets
}

// Property: the cache never holds more than capacity entries and a just-
// inserted line is always resident.
func TestCapacityProperty(t *testing.T) {
	f := func(lines []uint16) bool {
		c := New(2048, 4, 64) // 8 sets x 4 ways
		for _, ln := range lines {
			l := line(uint64(ln))
			c.Insert(l, Shared)
			if c.Peek(l) == nil {
				return false
			}
			if c.Occupancy() > c.Capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMSHRLifecycle(t *testing.T) {
	m := NewMSHR(2)
	l := line(1)
	if m.Busy(l) {
		t.Fatal("fresh MSHR busy")
	}
	if !m.Allocate(l) {
		t.Fatal("allocate failed")
	}
	ran := []int{}
	m.Defer(l, func() { ran = append(ran, 1) })
	m.Defer(l, func() { ran = append(ran, 2) })
	m.Release(l)
	if len(ran) != 2 || ran[0] != 1 || ran[1] != 2 {
		t.Fatalf("waiters ran %v, want [1 2]", ran)
	}
	if m.Busy(l) {
		t.Fatal("busy after release")
	}
}

func TestMSHRLimit(t *testing.T) {
	m := NewMSHR(1)
	if !m.Allocate(line(1)) {
		t.Fatal("first allocate failed")
	}
	if m.Allocate(line(2)) {
		t.Fatal("allocate beyond limit succeeded")
	}
	if m.Stalls != 1 {
		t.Fatalf("stalls = %d, want 1", m.Stalls)
	}
	if m.Inflight() != 1 {
		t.Fatalf("inflight = %d, want 1", m.Inflight())
	}
}

func TestMSHRPanics(t *testing.T) {
	m := NewMSHR(0)
	m.Allocate(line(1))
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double allocate did not panic")
			}
		}()
		m.Allocate(line(1))
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("defer without allocation did not panic")
			}
		}()
		m.Defer(line(2), func() {})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("release without allocation did not panic")
			}
		}()
		m.Release(line(3))
	}()
}

// TestMSHRSteadyStateAllocs pins the zero-alloc contract of a contended
// transaction once the table has warmed up: allocating a line, deferring a
// waiter behind it and releasing it (which runs the waiter) reuses the
// slot, the index and the waiter list.
func TestMSHRSteadyStateAllocs(t *testing.T) {
	m := NewMSHR(0)
	ran := 0
	waiter := func() { ran++ }
	cycle := func() {
		for i := uint64(0); i < 64; i++ {
			m.Allocate(line(i))
			m.Defer(line(i), waiter)
			m.Defer(line(i), waiter)
		}
		for i := uint64(0); i < 64; i++ {
			m.Release(line(i))
		}
	}
	cycle() // AllocsPerRun adds one more unmeasured warm-up call
	if a := testing.AllocsPerRun(100, cycle); a != 0 {
		t.Fatalf("Allocate/Defer/Release cycle: %v allocs, want 0", a)
	}
	if ran != 2*64*102 || m.Inflight() != 0 {
		t.Fatalf("ran %d waiters with %d lines in flight, want %d and 0", ran, m.Inflight(), 2*64*102)
	}
}
