package cache

import (
	"math/bits"

	"dve/internal/topology"
)

// LineIndex is an open-addressing hash index from lines to int32 slots of a
// key array the caller owns: position p of the table names slot s when it
// holds s+1, and the line is keys[s]. Storing only slots keeps the table at
// 4 bytes per position, and because a zero position means "empty" a freshly
// made table is ready without an initialisation pass.
//
// Probing is linear from a Fibonacci-hashed home position; deletion shifts
// later members of the probe run back, so there are no tombstones. The
// table doubles when it would pass half full, rehashing through keys. It is
// the one hash index of the simulator's per-line state: the replica
// directory's LRUSet, the home directory, the MSHRs, the DRAM row-hammer
// counters and the replica directory's durable maps all sit on it.
type LineIndex struct {
	tab   []int32 // hash position -> slot+1; 0 marks an empty position
	shift uint    // 64 - log2(len(tab))
	n     int
}

// minIndexSize is the table size a first insertion grows an empty index to.
const minIndexSize = 8

// NewLineIndex returns an index that holds capacity lines without growing.
func NewLineIndex(capacity int) LineIndex {
	size := minIndexSize
	for size < 2*capacity {
		size <<= 1
	}
	return LineIndex{tab: make([]int32, size), shift: shiftFor(size)}
}

func shiftFor(size int) uint { return 64 - uint(bits.TrailingZeros(uint(size))) }

// Len returns the number of indexed lines.
func (x *LineIndex) Len() int { return x.n }

// home is l's preferred position: a Fibonacci hash keeps the high bits of
// the product, so the always-zero offset bits of a line address do not
// cluster the table.
func (x *LineIndex) home(l topology.Line) uint64 {
	return (uint64(l) * 0x9E3779B97F4A7C15) >> x.shift
}

// Get returns the slot indexed for l.
func (x *LineIndex) Get(l topology.Line, keys []topology.Line) (slot int32, ok bool) {
	if x.n == 0 {
		return -1, false
	}
	_, s := x.find(l, keys)
	return s - 1, s != 0
}

// find returns l's position and the value stored there (slot+1), or the
// empty position that ends l's probe run and 0. The table must not be
// empty.
func (x *LineIndex) find(l topology.Line, keys []topology.Line) (pos uint64, s int32) {
	mask := uint64(len(x.tab) - 1)
	for pos = x.home(l); ; pos = (pos + 1) & mask {
		s = x.tab[pos]
		if s == 0 || keys[s-1] == l {
			return pos, s
		}
	}
}

// Put indexes slot under its line keys[slot], which must not be indexed
// already.
func (x *LineIndex) Put(slot int32, keys []topology.Line) {
	if 2*(x.n+1) > len(x.tab) {
		x.grow(keys)
	}
	x.tab[x.vacant(keys[slot])] = slot + 1
	x.n++
}

// vacant returns the empty position that ends l's probe run.
func (x *LineIndex) vacant(l topology.Line) uint64 {
	mask := uint64(len(x.tab) - 1)
	pos := x.home(l)
	for x.tab[pos] != 0 {
		pos = (pos + 1) & mask
	}
	return pos
}

// grow doubles the table and re-places every indexed slot.
func (x *LineIndex) grow(keys []topology.Line) {
	old := x.tab
	size := 2 * len(old)
	if size < minIndexSize {
		size = minIndexSize
	}
	x.tab, x.shift = make([]int32, size), shiftFor(size)
	for _, s := range old {
		if s != 0 {
			x.tab[x.vacant(keys[s-1])] = s
		}
	}
}

// Delete removes l and returns the slot it named. keys must still hold l
// at that slot.
func (x *LineIndex) Delete(l topology.Line, keys []topology.Line) (slot int32, ok bool) {
	if x.n == 0 {
		return -1, false
	}
	pos, s := x.find(l, keys)
	if s == 0 {
		return -1, false
	}
	// Shift later members of the probe run back over the hole, so every
	// lookup still reaches its line before an empty position.
	mask := uint64(len(x.tab) - 1)
	for j := (pos + 1) & mask; ; j = (j + 1) & mask {
		m := x.tab[j]
		if m == 0 {
			break
		}
		// The member at j may fill the hole unless its home lies
		// cyclically after the hole, in (pos, j].
		if (j-x.home(keys[m-1]))&mask >= (j-pos)&mask {
			x.tab[pos] = m
			pos = j
		}
	}
	x.tab[pos] = 0
	x.n--
	return s - 1, true
}

// Clear empties the index, keeping its table.
func (x *LineIndex) Clear() {
	clear(x.tab)
	x.n = 0
}

// LineMap maps lines to values of type V: slots with a LIFO free list, on a
// LineIndex. Values live in one slice, so a map of small values costs no
// heap object per line, and Ref hands out a pointer for in-place updates.
// The zero value is an empty map ready to use.
type LineMap[V any] struct {
	index LineIndex
	keys  []topology.Line
	vals  []V
	free  []int32
}

// NewLineMap returns a map that holds capacity lines without growing its
// index.
func NewLineMap[V any](capacity int) LineMap[V] {
	return LineMap[V]{index: NewLineIndex(capacity)}
}

// Len returns the number of lines in the map.
func (m *LineMap[V]) Len() int { return m.index.n }

// Get returns l's value.
func (m *LineMap[V]) Get(l topology.Line) (v V, ok bool) {
	if s, ok := m.index.Get(l, m.keys); ok {
		return m.vals[s], true
	}
	return v, false
}

// Has reports whether l is in the map.
func (m *LineMap[V]) Has(l topology.Line) bool {
	_, ok := m.index.Get(l, m.keys)
	return ok
}

// Ptr returns a pointer to l's value, or nil when l is absent. The pointer
// is valid until the next Ref or Put that adds a line.
func (m *LineMap[V]) Ptr(l topology.Line) *V {
	if s, ok := m.index.Get(l, m.keys); ok {
		return &m.vals[s]
	}
	return nil
}

// Ref returns a pointer to l's value, adding l with the zero value first
// when it is absent; added reports which. The pointer is valid until the
// next Ref or Put that adds a line.
func (m *LineMap[V]) Ref(l topology.Line) (v *V, added bool) {
	if s, ok := m.index.Get(l, m.keys); ok {
		return &m.vals[s], false
	}
	var s int32
	if k := len(m.free); k > 0 {
		s = m.free[k-1]
		m.free = m.free[:k-1]
		m.keys[s] = l
	} else {
		s = int32(len(m.keys))
		m.keys = append(m.keys, l)
		var zero V
		m.vals = append(m.vals, zero)
	}
	m.index.Put(s, m.keys)
	return &m.vals[s], true
}

// Put sets l's value.
func (m *LineMap[V]) Put(l topology.Line, v V) {
	p, _ := m.Ref(l)
	*p = v
}

// Delete removes l and returns its value.
func (m *LineMap[V]) Delete(l topology.Line) (v V, ok bool) {
	s, ok := m.index.Delete(l, m.keys)
	if !ok {
		return v, false
	}
	v = m.vals[s]
	var zero V
	m.vals[s] = zero // release references held by the value
	m.free = append(m.free, s)
	return v, true
}

// Clear removes every line, keeping the storage for reuse.
func (m *LineMap[V]) Clear() {
	m.index.Clear()
	clear(m.vals)
	m.keys, m.vals, m.free = m.keys[:0], m.vals[:0], m.free[:0]
}
