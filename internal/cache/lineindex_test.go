package cache

import (
	"testing"

	"dve/internal/topology"
)

// indexModel drives a LineIndex over an append-only key array (the home
// directory's shape: slot i holds keys[i]) and checks it against a Go map.
type indexModel struct {
	x    LineIndex
	keys []topology.Line
	want map[topology.Line]int32
}

func (m *indexModel) check(t *testing.T, step int) {
	t.Helper()
	if m.x.Len() != len(m.want) {
		t.Fatalf("step %d: Len %d, model %d", step, m.x.Len(), len(m.want))
	}
	used := 0
	for _, s := range m.x.tab {
		if s != 0 {
			used++
		}
	}
	if used != len(m.want) || (len(m.x.tab) > 0 && 2*used > len(m.x.tab)) {
		t.Fatalf("step %d: %d of %d positions used, model holds %d", step, used, len(m.x.tab), len(m.want))
	}
	for l, slot := range m.want {
		if got, ok := m.x.Get(l, m.keys); !ok || got != slot {
			t.Fatalf("step %d: Get(%#x) = %d, %v; model slot %d", step, l, got, ok, slot)
		}
	}
}

// FuzzLineIndex decodes bytes into Put/Get/Delete/Clear operations over a
// small line universe, so probe runs collide, wrap the table and grow it,
// and checks every step against a Go map. The seed corpus runs under plain
// go test.
func FuzzLineIndex(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 3, 1, 2, 2, 2, 1, 2, 0, 2})
	f.Add([]byte{0, 0, 0, 8, 0, 16, 0, 24, 0, 32, 2, 8, 1, 24, 3, 0, 0, 40, 1, 40})
	f.Add([]byte{0, 5, 0, 6, 0, 7, 0, 9, 0, 10, 0, 11, 0, 12, 0, 13, 2, 7, 2, 5, 1, 13, 1, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		m := &indexModel{want: map[topology.Line]int32{}}
		for i := 0; i+1 < len(data); i += 2 {
			// Line addresses: multiples of 64, as the simulator produces.
			l := topology.Line(uint64(data[i+1]%48) * 64)
			switch data[i] % 4 {
			case 0:
				if _, ok := m.want[l]; ok {
					break // Put requires an absent line
				}
				slot := int32(len(m.keys))
				m.keys = append(m.keys, l)
				m.x.Put(slot, m.keys)
				m.want[l] = slot
			case 1:
				got, ok := m.x.Get(l, m.keys)
				want, wok := m.want[l]
				if ok != wok || (ok && got != want) {
					t.Fatalf("step %d: Get(%#x) = %d, %v; model %d, %v", i/2, l, got, ok, want, wok)
				}
			case 2:
				got, ok := m.x.Delete(l, m.keys)
				want, wok := m.want[l]
				if ok != wok || (ok && got != want) {
					t.Fatalf("step %d: Delete(%#x) = %d, %v; model %d, %v", i/2, l, got, ok, want, wok)
				}
				delete(m.want, l)
			case 3:
				m.x.Clear()
				clear(m.want)
			}
			m.check(t, i/2)
		}
	})
}

// TestLineIndexGrows fills a zero-value index far past its first table,
// deleting every third line on the way, so it rehashes through keys several
// times with holes in the slot range.
func TestLineIndexGrows(t *testing.T) {
	m := &indexModel{want: map[topology.Line]int32{}}
	for i := 0; i < 5000; i++ {
		l := topology.Line(uint64(i) * 64)
		slot := int32(len(m.keys))
		m.keys = append(m.keys, l)
		m.x.Put(slot, m.keys)
		m.want[l] = slot
		if i%3 == 2 {
			victim := topology.Line(uint64(i-1) * 64)
			if _, ok := m.x.Delete(victim, m.keys); !ok {
				t.Fatalf("Delete(%#x) missed", victim)
			}
			delete(m.want, victim)
		}
	}
	m.check(t, 5000)
}

// TestLineMap checks the slot bookkeeping on top of the index: deleted
// slots are reused, values are released on delete and Clear, and Ref
// reports whether it added the line.
func TestLineMap(t *testing.T) {
	var m LineMap[*int]
	one, two := new(int), new(int)
	if _, ok := m.Get(line(1)); ok {
		t.Fatal("zero-value map holds a line")
	}
	m.Put(line(1), one)
	m.Put(line(2), two)
	if p, added := m.Ref(line(1)); added || *p != one {
		t.Fatalf("Ref of a present line: added=%v value=%p, want false %p", added, *p, one)
	}
	if v, ok := m.Delete(line(1)); !ok || v != one {
		t.Fatalf("Delete = %p, %v; want %p, true", v, ok, one)
	}
	if m.vals[0] != nil {
		t.Fatal("deleted slot still references its value")
	}
	if p, added := m.Ref(line(3)); !added || *p != nil {
		t.Fatal("Ref of an absent line did not add a zero value")
	}
	if len(m.keys) != 2 {
		t.Fatalf("%d slots after delete and add, want the freed slot reused (2)", len(m.keys))
	}
	if m.Ptr(line(1)) != nil || m.Ptr(line(2)) == nil || *m.Ptr(line(2)) != two {
		t.Fatal("Ptr disagrees with the map contents")
	}
	m.Clear()
	if m.Len() != 0 || m.Has(line(2)) || cap(m.vals) < 2 || m.vals[:2][1] != nil {
		t.Fatal("Clear left lines, dropped the storage or kept a value reference")
	}
}
