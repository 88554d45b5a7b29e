package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"
)

// traceRec is one dispatched test event: which partition, when, and a
// caller-chosen id.
type traceRec struct {
	Part int
	When Cycle
	ID   uint64
}

// xorshift is a tiny deterministic PRNG (no math/rand: the determinism
// analyzer treats its global state as a nondeterminism source).
func xorshift(s *uint64) uint64 {
	*s ^= *s << 13
	*s ^= *s >> 7
	*s ^= *s << 17
	return *s
}

const testWindow = 151

// pingPongTrace runs a deterministic two-partition workload — local event
// chains that occasionally fire cross-partition messages at or beyond the
// lookahead window — and returns the per-partition dispatch traces plus the
// epoch/stall counters.
func pingPongTrace() (trace [2][]traceRec, epochs, stalls uint64) {
	pe := NewParallelEngine(2, testWindow)
	rng := [2]uint64{0x9e3779b97f4a7c15, 0xdeadbeefcafef00d}

	var step func(p int, ttl int, id uint64)
	step = func(p int, ttl int, id uint64) {
		trace[p] = append(trace[p], traceRec{Part: p, When: pe.Part(p).Now(), ID: id})
		if ttl == 0 {
			return
		}
		r := xorshift(&rng[p])
		next := id*7 + uint64(ttl)
		if r%5 == 0 {
			// Cross send: at least window away, with a jittered extra leg.
			delay := Cycle(testWindow + r%97)
			pe.CrossSchedule(p, p^1, delay, func() { step(p^1, ttl-1, next) })
			return
		}
		pe.Part(p).Schedule(Cycle(1+r%40), func() { step(p, ttl-1, next) })
	}

	for p := 0; p < 2; p++ {
		p := p
		pe.Part(p).Schedule(Cycle(p), func() { step(p, 300, uint64(p)) })
	}
	pe.Run()
	return trace, pe.Epochs(), pe.BarrierStalls()
}

// The ping-pong workload's behaviour lock: its event trace, epoch count and
// barrier-stall count, recorded when the partitions could still also run on
// worker goroutines (both executions gave these values).
const (
	pingPongHash   = "683a2d609657473182b8642d5eb5d6009ee95e742f0cf5d3d227d104c2040921"
	pingPongEpochs = 89
	pingPongStalls = 51
)

// TestParallelMatchesSerialPartitioned pins the partitioned engine's event
// order and epoch accounting to the constants recorded from the serial
// epoch loop, which the worker-goroutine execution also reproduced.
func TestParallelMatchesSerialPartitioned(t *testing.T) {
	trace, epochs, stalls := pingPongTrace()
	if got := traceHash(trace); got != pingPongHash {
		t.Errorf("trace hash %s, want %s", got, pingPongHash)
	}
	if epochs != pingPongEpochs || stalls != pingPongStalls {
		t.Errorf("%d epochs, %d stalls; want %d, %d", epochs, stalls, pingPongEpochs, pingPongStalls)
	}
	if epochs == 0 {
		t.Fatal("workload executed no epochs")
	}
}

// TestParallelRunTwiceDeterminism reruns the ping-pong workload on a fresh
// engine and requires an identical trace: nothing carried between engines
// (package state, reused mailbox buffers) may change the event order.
func TestParallelRunTwiceDeterminism(t *testing.T) {
	a, aE, aS := pingPongTrace()
	b, bE, bS := pingPongTrace()
	if !reflect.DeepEqual(a, b) || aE != bE || aS != bS {
		t.Fatal("partitioned engine is not deterministic across runs")
	}
}

// TestCrossAtEnforcesLookahead: a cross message inside the window would
// break conservative synchronization and must panic loudly.
func TestCrossAtEnforcesLookahead(t *testing.T) {
	pe := NewParallelEngine(2, 100)
	defer func() {
		if recover() == nil {
			t.Fatal("CrossAt inside the lookahead window did not panic")
		}
	}()
	pe.CrossAt(0, 1, 99, func() {})
}

// TestCrossAtFnOrderingTies: simultaneous deliveries from both sources
// merge in (when, src, send order) — the documented mailbox ordering rule.
func TestCrossAtFnOrderingTies(t *testing.T) {
	pe := NewParallelEngine(2, 10)
	var order []uint64
	rec := func(_ any, v uint64) { order = append(order, v) }
	// Partition 1 sends first in wall order, but ties at cycle 20 must
	// resolve by source index, then send order within the source.
	pe.Part(1).Schedule(0, func() {
		pe.CrossAtFn(1, 0, 20, rec, nil, 10)
		pe.CrossAtFn(1, 0, 20, rec, nil, 11)
		pe.CrossAtFn(1, 0, 15, rec, nil, 12)
	})
	pe.Part(0).Schedule(0, func() {
		pe.CrossAtFn(0, 0, 20, rec, nil, 0)
	})
	pe.Run()
	want := []uint64{12, 0, 10, 11}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("merge order = %v, want %v", order, want)
	}
}

// TestParallelEngineValidation pins the constructor contract.
func TestParallelEngineValidation(t *testing.T) {
	for _, tc := range []struct{ parts, window int }{{0, 5}, {2, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewParallelEngine(%d, %d) did not panic", tc.parts, tc.window)
				}
			}()
			NewParallelEngine(tc.parts, Cycle(tc.window))
		}()
	}
}

// TestParallelEngineDrainsDaemons: daemon events (refresh-style self-
// rescheduling ticks) must not keep the epoch loop alive once demanded
// work is gone — mirroring Engine.Run's demand contract.
func TestParallelEngineDrainsDaemons(t *testing.T) {
	pe := NewParallelEngine(2, 50)
	ticks := 0
	var tick func()
	tick = func() {
		ticks++
		pe.Part(0).ScheduleDaemon(10, tick)
	}
	pe.Part(0).ScheduleDaemon(10, tick)
	done := false
	pe.Part(1).Schedule(500, func() { done = true })
	pe.Run()
	if !done {
		t.Fatal("demanded work did not run")
	}
	if ticks == 0 {
		t.Fatal("daemon never ticked inside the demanded horizon")
	}
}

// crossBatcher drives TestParallelSteadyStateAllocs through package-level
// handlers so the scheduling itself allocates nothing.
type crossBatcher struct {
	pe        *ParallelEngine
	delivered uint64
}

func countCross(arg any, v uint64) { *arg.(*uint64) += v }

func sendCrossBatch(arg any, _ uint64) {
	b := arg.(*crossBatcher)
	when := b.pe.Part(0).Now() + 16
	for i := 0; i < 32; i++ {
		b.pe.CrossAtFn(0, 1, when, countCross, &b.delivered, 1)
	}
}

func nopAlign(any, uint64) {}

// TestParallelSteadyStateAllocs pins the mailbox's zero-alloc contract in
// the epoch loop: after a warm-up epoch batch has grown the lanes,
// repeated batches of typed cross sends allocate nothing. Each batch ends
// on an alignment event exactly one ring revolution (4096 cycles) after
// its start, so every batch reuses the same calendar buckets and only the
// warm-up batch grows capacity (the same trick the noc alloc test uses);
// the window-1 engine makes the final epoch end exactly on the alignment
// cycle, keeping batch starts congruent mod 4096.
func TestParallelSteadyStateAllocs(t *testing.T) {
	b := &crossBatcher{pe: NewParallelEngine(2, 1)}
	batch := func() {
		start := b.pe.Part(0).Now()
		b.pe.Part(0).ScheduleFn(0, sendCrossBatch, b, 0)
		b.pe.Part(0).AtFn(start+4096, nopAlign, nil, 0)
		b.pe.Run()
	}
	batch()
	if allocs := testing.AllocsPerRun(20, batch); allocs != 0 {
		t.Fatalf("steady-state cross batch allocated %.2f times, want 0", allocs)
	}
	if b.delivered == 0 {
		t.Fatal("no deliveries ran")
	}
}

// traceHash is the SHA-256 of a ping-pong trace, one "part when id" line
// per dispatched event, partition 0's events first.
func traceHash(trace [2][]traceRec) string {
	h := sha256.New()
	for _, recs := range trace {
		for _, r := range recs {
			fmt.Fprintf(h, "%d %d %d\n", r.Part, r.When, r.ID)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
