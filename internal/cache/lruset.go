package cache

import (
	"fmt"

	"dve/internal/topology"
)

// LRUSet is a fixed-capacity set of lines with least-recently-used
// replacement; it is the Dvé replica directory's on-chip store (the "fully
// associative 2K entry structure", Section VI). Lookup, Insert and
// Invalidate are O(1) and allocation-free: all storage is sized in
// NewLRUSet. Its resident set and victim order are exactly those of a
// NewFullyAssoc array of the same capacity driven by the same calls.
//
// Lines live in slots. An intrusive doubly linked list threads the occupied
// slots from least to most recently used, a stack holds the free slots, and
// a LineIndex maps a line to its slot.
type LRUSet struct {
	lines      []topology.Line // slot -> line
	prev, next []int32         // recency list over slots; -1 ends it
	head, tail int32           // least and most recently used slot
	free       []int32         // free-slot stack
	index      LineIndex
}

// NewLRUSet builds an empty set holding at most entries lines. It panics
// when entries is below 1: a zero-capacity directory is a configuration
// error callers must reject first.
func NewLRUSet(entries int) *LRUSet {
	if entries < 1 || entries > 1<<30 {
		panic(fmt.Sprintf("cache: LRUSet capacity %d outside [1, 2^30]", entries))
	}
	s := &LRUSet{
		lines: make([]topology.Line, entries),
		prev:  make([]int32, entries),
		next:  make([]int32, entries),
		free:  make([]int32, 0, entries),
		index: NewLineIndex(entries),
	}
	s.Clear()
	return s
}

// Len returns the number of resident lines.
func (s *LRUSet) Len() int { return s.index.Len() }

// Lookup reports whether l is resident and, if so, makes it the most
// recently used line.
func (s *LRUSet) Lookup(l topology.Line) bool {
	slot, ok := s.index.Get(l, s.lines)
	if ok {
		s.touch(slot)
	}
	return ok
}

// Insert makes l resident and most recently used, evicting the least
// recently used line when the set is full and l is not already present.
func (s *LRUSet) Insert(l topology.Line) {
	slot, ok := s.index.Get(l, s.lines)
	if ok {
		s.touch(slot)
		return
	}
	if k := len(s.free); k > 0 {
		slot = s.free[k-1]
		s.free = s.free[:k-1]
	} else {
		slot = s.head
		s.unlink(slot)
		s.index.Delete(s.lines[slot], s.lines)
	}
	s.lines[slot] = l
	s.index.Put(slot, s.lines)
	s.pushTail(slot)
}

// Invalidate removes l; it reports whether l was resident.
func (s *LRUSet) Invalidate(l topology.Line) bool {
	slot, ok := s.index.Delete(l, s.lines)
	if ok {
		s.unlink(slot)
		s.free = append(s.free, slot)
	}
	return ok
}

// Clear removes every line (the dynamic protocol's drain phase). It is
// O(capacity) and allocation-free.
func (s *LRUSet) Clear() {
	s.index.Clear()
	s.free = s.free[:0]
	for i := len(s.lines) - 1; i >= 0; i-- {
		s.free = append(s.free, int32(i))
	}
	s.head, s.tail = -1, -1
}

// touch makes an occupied slot the most recently used.
func (s *LRUSet) touch(slot int32) {
	if slot != s.tail {
		s.unlink(slot)
		s.pushTail(slot)
	}
}

func (s *LRUSet) unlink(slot int32) {
	p, n := s.prev[slot], s.next[slot]
	if p >= 0 {
		s.next[p] = n
	} else {
		s.head = n
	}
	if n >= 0 {
		s.prev[n] = p
	} else {
		s.tail = p
	}
}

func (s *LRUSet) pushTail(slot int32) {
	s.prev[slot], s.next[slot] = s.tail, -1
	if s.tail >= 0 {
		s.next[s.tail] = slot
	} else {
		s.head = slot
	}
	s.tail = slot
}
