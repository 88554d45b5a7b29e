package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"
)

// traceRec is one dispatched test event: which side, when, and a
// caller-chosen id.
type traceRec struct {
	Side int
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

// handOff is the minimum delay of a hand-off to the other side.
const handOff = 151

// pingPongEngineTrace runs a deterministic two-sided workload on one
// engine: local event chains that occasionally hand off to the other side
// after at least handOff cycles. It returns each side's dispatch trace.
func pingPongEngineTrace() (trace [2][]traceRec) {
	eng := NewEngine()
	rng := [2]uint64{0x9e3779b97f4a7c15, 0xdeadbeefcafef00d}

	var step func(p int, ttl int, id uint64)
	step = func(p int, ttl int, id uint64) {
		trace[p] = append(trace[p], traceRec{Side: p, When: eng.Now(), ID: id})
		if ttl == 0 {
			return
		}
		r := xorshift(&rng[p])
		next := id*7 + uint64(ttl)
		if r%5 == 0 {
			// Hand-off: at least handOff away, with a jittered extra leg.
			eng.Schedule(Cycle(handOff+r%97), func() { step(p^1, ttl-1, next) })
			return
		}
		eng.Schedule(Cycle(1+r%40), func() { step(p, ttl-1, next) })
	}

	for p := 0; p < 2; p++ {
		p := p
		eng.Schedule(Cycle(p), func() { step(p, 300, uint64(p)) })
	}
	eng.Run()
	return trace
}

// pingPongEngineHash is the engine's behaviour lock on the ping-pong
// workload: any change to the event order (time, then schedule order)
// changes it.
const pingPongEngineHash = "683a2d609657473182b8642d5eb5d6009ee95e742f0cf5d3d227d104c2040921"

// TestParallelMatchesSerialPartitioned pins the engine's event order on the
// ping-pong workload to the trace hash recorded from the partitioned
// engine's serial epoch loop: the one engine reproduces that order.
func TestParallelMatchesSerialPartitioned(t *testing.T) {
	trace := pingPongEngineTrace()
	if got := traceHash(trace); got != pingPongEngineHash {
		t.Errorf("trace hash %s, want %s", got, pingPongEngineHash)
	}
	if len(trace[0]) == 0 || len(trace[1]) == 0 {
		t.Fatal("a side dispatched no events")
	}
}

// TestParallelRunTwiceDeterminism reruns the ping-pong workload on a fresh
// engine and requires an identical trace: nothing carried between engines
// may change the event order.
func TestParallelRunTwiceDeterminism(t *testing.T) {
	if a, b := pingPongEngineTrace(), pingPongEngineTrace(); !reflect.DeepEqual(a, b) {
		t.Fatal("engine is not deterministic across runs")
	}
}

// traceHash is the SHA-256 of a ping-pong trace, one "part when id" line
// per dispatched event, side 0's events first.
func traceHash(trace [2][]traceRec) string {
	h := sha256.New()
	for _, recs := range trace {
		for _, r := range recs {
			fmt.Fprintf(h, "%d %d %d\n", r.Side, r.When, r.ID)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
