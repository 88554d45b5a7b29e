package cache

import (
	"dve/internal/sim"
	"dve/internal/telemetry"
	"dve/internal/topology"
)

// Sequencer serializes per-line transactions behind an MSHR: each Do pays a
// fixed access latency, waits for any in-flight transaction on the line,
// and then runs the transaction body with a release function that must be
// called exactly once at completion. Both directory flavours (the home
// directory and the Dvé replica directory) sequence their transactions
// through one of these.
//
// The dispatch goes through a pooled call record and the engine's typed
// fast path, and the release function is built once per record, so an
// uncontended transaction performs no heap allocation here at all. The pool
// is a LIFO free list — reuse order is a pure function of the transaction
// order, never of map iteration, keeping runs deterministic.
type Sequencer struct {
	eng  *sim.Engine
	lat  sim.Cycle
	mshr *MSHR
	free []*seqCall

	// Trace, when non-nil, records contended dispatches (a transaction
	// deferred behind an in-flight one on the same line) as instant events
	// on the owner's (Comp, Socket) track. The disabled path is one nil
	// check; the alloc test pins it at 0 allocs/op.
	Trace  *telemetry.Tracer
	Comp   telemetry.Component
	Socket int
}

// seqCall carries one transaction from Do to its release: it rides the
// event queue, then stays checked out (holding the line) until the body
// calls release, which recycles it.
type seqCall struct {
	q       *Sequencer
	l       topology.Line
	fn      func(release func())
	release func()
}

// NewSequencer creates a sequencer over the MSHR with the given per-access
// latency.
func NewSequencer(eng *sim.Engine, lat sim.Cycle, mshr *MSHR) *Sequencer {
	return &Sequencer{eng: eng, lat: lat, mshr: mshr}
}

// MSHR returns the underlying MSHR table.
func (q *Sequencer) MSHR() *MSHR { return q.mshr }

// Do schedules fn to run on the line after the access latency, serialized
// against any in-flight transaction on the same line.
func (q *Sequencer) Do(l topology.Line, fn func(release func())) {
	c := q.get()
	c.l, c.fn = l, fn
	q.eng.ScheduleFn(q.lat, runSeqCall, c, 0)
}

func (q *Sequencer) get() *seqCall {
	if n := len(q.free); n > 0 {
		c := q.free[n-1]
		q.free = q.free[:n-1]
		return c
	}
	c := &seqCall{q: q}
	c.release = func() {
		// Recycle before waking waiters: a waiter may re-enter Do (which
		// may pop this very record and overwrite c.l), so copy the line
		// out first. LIFO reuse keeps the allocation pattern deterministic.
		l := c.l
		q.free = append(q.free, c)
		q.mshr.Release(l)
	}
	return c
}

// runSeqCall dispatches a queued transaction. On the contended path the
// record is recycled immediately and the retry is deferred into the MSHR;
// on the uncontended path the record stays checked out until release.
func runSeqCall(arg any, _ uint64) {
	c := arg.(*seqCall)
	q := c.q
	if q.mshr.Busy(c.l) {
		l, fn := c.l, c.fn
		c.fn = nil
		q.free = append(q.free, c)
		if q.Trace != nil {
			q.Trace.Point(q.Comp, q.Socket, "defer", uint64(l))
		}
		q.mshr.Defer(l, func() { q.Do(l, fn) })
		return
	}
	q.mshr.Allocate(c.l)
	fn := c.fn
	c.fn = nil
	fn(c.release)
}
