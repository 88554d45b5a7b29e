package cache

import "dve/internal/topology"

// MSHR tracks in-flight transactions per line. Requests for a line with an
// outstanding transaction are coalesced and serialized, which is the
// invariant the paper's recovery path relies on ("any concurrent request ...
// is serialized and coalesced at the directory in the MSHR", Section V-C3).
type MSHR struct {
	entries LineMap[[]func()] // in-flight line -> deferred waiters
	// spare holds emptied waiter lists for reuse, so a steady stream of
	// contended transactions allocates no list storage.
	spare [][]func()
	limit int
	// Stalls counts requests that found the structure at its limit.
	Stalls uint64
}

// NewMSHR creates an MSHR table with a maximum number of distinct in-flight
// lines (0 means unlimited).
func NewMSHR(limit int) *MSHR {
	return &MSHR{limit: limit}
}

// Busy reports whether a transaction is outstanding for the line.
func (m *MSHR) Busy(l topology.Line) bool { return m.entries.Has(l) }

// Full reports whether a new line could not be allocated.
func (m *MSHR) Full() bool {
	return m.limit > 0 && m.entries.Len() >= m.limit
}

// Allocate reserves the line. It panics if the line is already busy (callers
// must check Busy first) and returns false if the table is full.
func (m *MSHR) Allocate(l topology.Line) bool {
	if m.Full() && !m.Busy(l) {
		m.Stalls++
		return false
	}
	if _, added := m.entries.Ref(l); !added {
		panic("mshr: double allocate")
	}
	return true
}

// Defer queues fn to run when the line's current transaction completes.
func (m *MSHR) Defer(l topology.Line, fn func()) {
	w := m.entries.Ptr(l)
	if w == nil {
		panic("mshr: defer without allocation")
	}
	if *w == nil {
		if k := len(m.spare); k > 0 {
			*w = m.spare[k-1]
			m.spare = m.spare[:k-1]
		}
	}
	*w = append(*w, fn)
}

// Release completes the line's transaction and then runs its deferred
// waiters in FIFO order; a waiter sees the line free and may allocate it
// again.
func (m *MSHR) Release(l topology.Line) {
	waiters, ok := m.entries.Delete(l)
	if !ok {
		panic("mshr: release without allocation")
	}
	if waiters == nil {
		return
	}
	for i, w := range waiters {
		w()
		waiters[i] = nil
	}
	m.spare = append(m.spare, waiters[:0])
}

// Inflight returns the number of lines with outstanding transactions.
func (m *MSHR) Inflight() int { return m.entries.Len() }
