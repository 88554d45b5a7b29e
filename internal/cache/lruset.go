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
// an open-addressing index (linear probing, backward-shift deletion, so no
// tombstones) maps a line to its slot.
type LRUSet struct {
	lines      []topology.Line // slot -> line
	prev, next []int32         // recency list over slots; -1 ends it
	head, tail int32           // least and most recently used slot
	free       []int32         // free-slot stack
	index      []int32         // hash position -> slot, -1 when empty
	shift      uint            // 64 - log2(len(index))
	n          int
}

// NewLRUSet builds an empty set holding at most entries lines. It panics
// when entries is below 1: a zero-capacity directory is a configuration
// error callers must reject first.
func NewLRUSet(entries int) *LRUSet {
	if entries < 1 || entries > 1<<30 {
		panic(fmt.Sprintf("cache: LRUSet capacity %d outside [1, 2^30]", entries))
	}
	size, bits := 2, uint(1)
	for size < 2*entries {
		size <<= 1
		bits++
	}
	s := &LRUSet{
		lines: make([]topology.Line, entries),
		prev:  make([]int32, entries),
		next:  make([]int32, entries),
		free:  make([]int32, 0, entries),
		index: make([]int32, size),
		shift: 64 - bits,
	}
	s.Clear()
	return s
}

// Len returns the number of resident lines.
func (s *LRUSet) Len() int { return s.n }

// Lookup reports whether l is resident and, if so, makes it the most
// recently used line.
func (s *LRUSet) Lookup(l topology.Line) bool {
	_, slot := s.find(l)
	if slot < 0 {
		return false
	}
	s.touch(slot)
	return true
}

// Insert makes l resident and most recently used, evicting the least
// recently used line when the set is full and l is not already present.
func (s *LRUSet) Insert(l topology.Line) {
	pos, slot := s.find(l)
	if slot >= 0 {
		s.touch(slot)
		return
	}
	if k := len(s.free); k > 0 {
		slot = s.free[k-1]
		s.free = s.free[:k-1]
		s.n++
	} else {
		slot = s.head
		s.unlink(slot)
		vpos, _ := s.find(s.lines[slot])
		s.unindex(vpos)
		// The deletion may have shifted l's probe chain: search again.
		pos, _ = s.find(l)
	}
	s.lines[slot] = l
	s.index[pos] = slot
	s.pushTail(slot)
}

// Invalidate removes l; it reports whether l was resident.
func (s *LRUSet) Invalidate(l topology.Line) bool {
	pos, slot := s.find(l)
	if slot < 0 {
		return false
	}
	s.unlink(slot)
	s.unindex(pos)
	s.free = append(s.free, slot)
	s.n--
	return true
}

// Clear removes every line (the dynamic protocol's drain phase). It is
// O(capacity) and allocation-free.
func (s *LRUSet) Clear() {
	for i := range s.index {
		s.index[i] = -1
	}
	s.free = s.free[:0]
	for i := len(s.lines) - 1; i >= 0; i-- {
		s.free = append(s.free, int32(i))
	}
	s.head, s.tail, s.n = -1, -1, 0
}

// home is l's preferred index position: a Fibonacci hash keeps the high
// bits of the product, so the always-zero offset bits of a line address do
// not cluster the table.
func (s *LRUSet) home(l topology.Line) uint64 {
	return (uint64(l) * 0x9E3779B97F4A7C15) >> s.shift
}

// find returns l's index position and slot, or the empty position that ends
// its probe chain and slot -1.
func (s *LRUSet) find(l topology.Line) (pos uint64, slot int32) {
	mask := uint64(len(s.index) - 1)
	for pos = s.home(l); ; pos = (pos + 1) & mask {
		slot = s.index[pos]
		if slot < 0 || s.lines[slot] == l {
			return pos, slot
		}
	}
}

// unindex empties index position pos, shifting later members of the probe
// run back so that every lookup still reaches its line before a hole.
func (s *LRUSet) unindex(pos uint64) {
	mask := uint64(len(s.index) - 1)
	for j := (pos + 1) & mask; ; j = (j + 1) & mask {
		slot := s.index[j]
		if slot < 0 {
			break
		}
		// The member at j may fill the hole unless its home lies
		// cyclically after the hole, in (pos, j].
		if (j-s.home(s.lines[slot]))&mask >= (j-pos)&mask {
			s.index[pos] = slot
			pos = j
		}
	}
	s.index[pos] = -1
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
