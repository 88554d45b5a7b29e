// Package deferredmutation seeds the grant/fill-split shape behind the
// three coherence races PR 1's fault campaign exposed: protocol state
// mutated at the serialization point while the matching fill runs in a
// later scheduled event.
package deferredmutation

import (
	"cache"
	"sim"
)

// grantThenDeferredFill is the PR 1 race reconstruction: the grant (state,
// owner) is applied immediately, the fill-side cleanup is deferred. Between
// the two events every other agent observes the half-applied transition.
func grantThenDeferredFill(eng *sim.Engine, e *cache.Entry) {
	e.State = cache.Modified // the "grant", applied at the serialization point
	e.Owner = 1
	eng.Schedule(4, func() {
		e.Dirty = true // want `closure deferred via Schedule mutates e\.Dirty, but e\.State was already mutated before scheduling \(line 16\)`
	})
}

// daemonSplit catches the same shape through ScheduleDaemon.
func daemonSplit(eng *sim.Engine, e *cache.Entry) {
	e.Sharers = 0
	eng.ScheduleDaemon(10, func() {
		e.State = cache.Shared // want `closure deferred via ScheduleDaemon mutates e\.State`
	})
}

// atSplit catches the same shape through At, including writes through an
// element of the captured state.
func atSplit(eng *sim.Engine, entries []cache.Entry) {
	entries[0].State = cache.Owned
	eng.At(100, func() {
		entries[0].Dirty = true // want `closure deferred via At mutates entries\[0\]\.Dirty`
	})
}

// fnSplit catches the grant/fill split through the typed fast path: the
// deferred handler is a closure literal passed to ScheduleFn.
func fnSplit(eng *sim.Engine, e *cache.Entry) {
	e.State = cache.Modified
	eng.ScheduleFn(4, func(any, uint64) {
		e.Dirty = true // want `closure deferred via ScheduleFn mutates e\.Dirty`
	}, nil, 0)
}

// atFnSplit catches the same shape when the mutation rides in the arg
// closure rather than the handler.
func atFnSplit(eng *sim.Engine, e *cache.Entry, run sim.Handler) {
	e.Sharers = 3
	eng.AtFn(100, run, func() {
		e.State = cache.Shared // want `closure deferred via AtFn mutates e\.State`
	}, 0)
}

// allDeferred is the fix for the race above: the whole transition happens
// inside the event, so no half-applied state is ever observable.
func allDeferred(eng *sim.Engine, e *cache.Entry) {
	eng.Schedule(4, func() {
		e.State = cache.Modified
		e.Dirty = true // ok: grant and fill on the same side of the boundary
	})
}

// allImmediate applies everything at the serialization point and only
// reads in the deferred event — also fine.
func allImmediate(eng *sim.Engine, e *cache.Entry, notify func(cache.State)) {
	e.State = cache.Shared
	e.Dirty = false
	eng.Schedule(4, func() {
		notify(e.State) // ok: the closure only reads
	})
}

// counters is not protocol state (its type lives in this package, not in
// cache/coherence/dve/mcheck), so split mutation is allowed.
type counters struct{ fills int }

func statsOnly(eng *sim.Engine, c *counters) {
	c.fills++
	eng.Schedule(1, func() {
		c.fills++ // ok: plain bookkeeping, not protocol state
	})
}

// exclusiveBranches mirrors the directory's GETS handler: one switch arm
// applies the transition immediately, another defers the whole transition
// into the data-arrival event. The arms are mutually exclusive, so nothing
// straddles the boundary.
func exclusiveBranches(eng *sim.Engine, e *cache.Entry, owned bool) {
	switch {
	case !owned:
		e.State = cache.Shared
		e.Sharers = 1
	default:
		eng.Schedule(8, func() {
			e.State = cache.Owned // ok: the immediate mutation is in the other arm
			e.Sharers = 2
		})
	}
}

// siblingClosures defers the whole transition in two pieces, both deferred:
// whatever interleaving results, no state was half-applied at the
// serialization point.
func siblingClosures(eng *sim.Engine, e *cache.Entry) {
	eng.Schedule(1, func() {
		e.State = cache.Shared
	})
	eng.Schedule(2, func() {
		e.Dirty = false // ok: the earlier mutation is in a sibling closure
	})
}

// guardedMutation keeps the immediate mutation behind an if that returns:
// the scheduling call never runs on that path.
func guardedMutation(eng *sim.Engine, e *cache.Entry, hit bool) {
	if hit {
		e.State = cache.Shared
		return
	}
	eng.Schedule(3, func() {
		e.State = cache.Invalid // ok: mutually exclusive with the if body
	})
}

// closureLocal declares the entry inside the closure: nothing is captured,
// nothing can be observed half-applied.
func closureLocal(eng *sim.Engine) {
	eng.Schedule(2, func() {
		var e cache.Entry
		e.State = cache.Modified
		e.Dirty = true // ok: closure-local state
	})
}
