// Conservative discrete-event simulation over engine partitions.
//
// A ParallelEngine owns one Engine per partition (one per socket in this
// simulator) and runs them in lockstepped epochs. The lookahead invariant
// that makes this safe is the inter-partition link latency: a message sent
// from partition p at cycle t cannot be delivered to another partition
// before t+window, where window = min link latency + 1 (every link message
// pays at least one serialization cycle before the latency leg). So all
// partitions may freely execute the half-open window [T, T+window) without
// observing each other, where T is the global minimum pending-event time.
//
// Cross-partition messages are not scheduled directly on the destination
// engine (their order there would depend on which partition ran first);
// they accumulate in per-(src,dst) mailbox lanes during the epoch and are
// merged at the barrier. Lanes are concatenated in source order and
// stable-sorted by delivery time, so ties break by (delivery time, source
// partition, send order within the source). Destination sequence numbers
// are assigned in merge order.
//
// All partitions run on the caller's goroutine, one after another within
// each epoch. A worker goroutine per partition measured slower than this
// loop (DESIGN.md §5a), so the engine no longer has one; the name
// ParallelEngine is kept from that design.
package sim

// crossEvent is one mailbox entry: an absolute-time event bound for another
// partition. Closure sends ride in fn; the typed fast path rides in (h,
// arg, v) with fn nil — mirroring the Engine event representation.
type crossEvent struct {
	when Cycle
	h    Handler
	arg  any
	v    uint64
	fn   func()
}

// ParallelEngine coordinates nparts calendar-queue partitions that may only
// interact through CrossAt/CrossAtFn messages delayed by at least the
// lookahead window. The partitions run in lockstep epochs on one goroutine.
type ParallelEngine struct {
	parts  []*Engine
	window Cycle

	// lanes[src*n+dst] is the mailbox from src to dst. Partition src's
	// events append to it during an epoch and merge drains it at the
	// barrier; the slices keep their capacity so the steady state appends
	// without allocating.
	lanes   [][]crossEvent
	scratch []crossEvent

	epochs uint64
	stalls uint64
}

// NewParallelEngine returns a partitioned engine with nparts fresh partitions
// and the given lookahead window in cycles. The window must be at least 1
// — a degenerate window means the config's link latency cannot bound
// cross-partition visibility and the caller should fall back to a single
// shared engine.
func NewParallelEngine(nparts int, window Cycle) *ParallelEngine {
	if nparts < 1 {
		panic("sim: parallel engine needs at least one partition")
	}
	if window < 1 {
		panic("sim: lookahead window must be at least one cycle")
	}
	pe := &ParallelEngine{
		parts:  make([]*Engine, nparts),
		window: window,
		lanes:  make([][]crossEvent, nparts*nparts),
	}
	for i := range pe.parts {
		pe.parts[i] = NewEngine()
	}
	return pe
}

// Part returns partition i's engine. All intra-partition scheduling goes
// straight to it; only cross-partition messages go through the mailbox.
func (pe *ParallelEngine) Part(i int) *Engine { return pe.parts[i] }

// Parts returns the number of partitions.
func (pe *ParallelEngine) Parts() int { return len(pe.parts) }

// Window returns the lookahead window in cycles: the minimum scheduling
// distance CrossAt accepts.
func (pe *ParallelEngine) Window() Cycle { return pe.window }

// Epochs returns how many barrier-to-barrier windows Run executed. The
// count is a pure function of the event trace, so it is safe to fold into
// deterministic statistics.
func (pe *ParallelEngine) Epochs() uint64 { return pe.epochs }

// BarrierStalls counts partition-epochs in which a partition had no event
// inside the window and idled at the barrier — the deterministic
// load-imbalance signal.
func (pe *ParallelEngine) BarrierStalls() uint64 { return pe.stalls }

// CrossAt enqueues fn for partition dst at absolute cycle when, sent from
// partition src. when must respect the lookahead window relative to src's
// clock; violating it means the configured link latency did not actually
// bound the message, i.e. the conservative synchronization would be wrong.
func (pe *ParallelEngine) CrossAt(src, dst int, when Cycle, fn func()) {
	pe.checkLookahead(src, when)
	lane := &pe.lanes[src*len(pe.parts)+dst]
	*lane = append(*lane, crossEvent{when: when, fn: fn})
}

// CrossAtFn is the allocation-free fast path of CrossAt, mirroring
// Engine.AtFn: a package-level Handler plus pointer-shaped arg avoids the
// per-message closure.
func (pe *ParallelEngine) CrossAtFn(src, dst int, when Cycle, h Handler, arg any, v uint64) {
	pe.checkLookahead(src, when)
	lane := &pe.lanes[src*len(pe.parts)+dst]
	*lane = append(*lane, crossEvent{when: when, h: h, arg: arg, v: v})
}

// CrossSchedule is the relative-delay form of CrossAt; delay must be at
// least the lookahead window.
func (pe *ParallelEngine) CrossSchedule(src, dst int, delay Cycle, fn func()) {
	pe.CrossAt(src, dst, pe.parts[src].now+delay, fn)
}

func (pe *ParallelEngine) checkLookahead(src int, when Cycle) {
	if when < pe.parts[src].now+pe.window {
		panic("sim: cross-partition event inside the lookahead window")
	}
}

// nextEpoch computes the next epoch's inclusive end, or ok=false when all
// demanded work (everywhere) has drained or a partition was stopped. Cross
// events merged at the previous barrier are already in their destination
// queues, so the demand sum sees in-flight link messages.
func (pe *ParallelEngine) nextEpoch() (end Cycle, ok bool) {
	demand := 0
	for _, p := range pe.parts {
		if p.stopped {
			return 0, false
		}
		demand += p.demand
	}
	if demand == 0 {
		return 0, false
	}
	var t Cycle
	have := false
	for _, p := range pe.parts {
		if c, ok := p.NextEventTime(); ok && (!have || c < t) {
			t, have = c, true
		}
	}
	if !have {
		return 0, false
	}
	return t + pe.window - 1, true
}

// countStalls records partitions with nothing to do before end. Purely a
// function of queue state at the barrier, so deterministic.
func (pe *ParallelEngine) countStalls(end Cycle) {
	for _, p := range pe.parts {
		if c, ok := p.NextEventTime(); !ok || c > end {
			pe.stalls++
		}
	}
}

// Run executes epochs until every partition's demanded work drains: each
// epoch runs every partition up to the epoch's end, then merges the
// mailboxes at the barrier. It returns the largest partition clock.
func (pe *ParallelEngine) Run() Cycle {
	for {
		end, ok := pe.nextEpoch()
		if !ok {
			break
		}
		pe.epochs++
		pe.countStalls(end)
		for _, p := range pe.parts {
			p.RunUntil(end)
		}
		pe.merge()
	}
	var max Cycle
	for _, p := range pe.parts {
		if p.now > max {
			max = p.now
		}
	}
	return max
}

// merge drains every mailbox lane into its destination engine. For each
// destination the lanes are concatenated in source order and stable-sorted
// by delivery time (insertion sort: lanes are tiny and mostly sorted), so
// the destination sequence order is (when, src, send order).
func (pe *ParallelEngine) merge() {
	n := len(pe.parts)
	for dst := 0; dst < n; dst++ {
		buf := pe.scratch[:0]
		for src := 0; src < n; src++ {
			li := src*n + dst
			buf = append(buf, pe.lanes[li]...)
			clear(pe.lanes[li]) // release arg/handler references
			pe.lanes[li] = pe.lanes[li][:0]
		}
		for i := 1; i < len(buf); i++ {
			for j := i; j > 0 && buf[j].when < buf[j-1].when; j-- {
				buf[j], buf[j-1] = buf[j-1], buf[j]
			}
		}
		p := pe.parts[dst]
		for i := range buf {
			ev := &buf[i]
			if ev.fn != nil {
				p.At(ev.when, ev.fn)
			} else {
				p.AtFn(ev.when, ev.h, ev.arg, ev.v)
			}
		}
		clear(buf)
		pe.scratch = buf[:0]
	}
}
