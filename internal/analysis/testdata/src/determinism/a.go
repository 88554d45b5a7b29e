// Package determinism seeds the nondeterminism sources the analyzer bans
// from simulation packages: wall-clock reads, the process-global math/rand
// source, and effectful iteration over maps.
package determinism

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"sim"
)

func wallClock() time.Time {
	return time.Now() // want `time\.Now in a simulation package`
}

func elapsed(t0 time.Time) time.Duration {
	return time.Since(t0) // want `time\.Since in a simulation package`
}

func globalRand() int {
	return rand.Intn(6) // want `global rand\.Intn shares process-wide state`
}

func seeded(r *rand.Rand) int {
	return r.Intn(6) // ok: seeded generator, reproducible per run
}

func construct() *rand.Rand {
	return rand.New(rand.NewSource(42)) // ok: constructors are deterministic
}

func timeArithmetic(t0 time.Time, d time.Duration) time.Time {
	return t0.Add(d) // ok: methods on time.Time are pure
}

func mapSchedule(eng *sim.Engine, m map[int]int) {
	for k := range m {
		k := k
		eng.Schedule(1, func() { _ = k }) // want `Schedule inside a map range`
	}
}

func mapScheduleFn(eng *sim.Engine, m map[int]*int, h sim.Handler) {
	for _, v := range m {
		eng.ScheduleFn(1, h, v, 0) // want `ScheduleFn inside a map range`
	}
}

type journal struct{ events []int }

// Append records one event.
func (j *journal) Append(e int) { j.events = append(j.events, e) }

func mapJournal(j *journal, m map[int]int) {
	for _, v := range m {
		j.Append(v) // want `call to Append inside a map range`
	}
}

func mapPrint(m map[int]int) {
	for k := range m {
		fmt.Println(k) // want `fmt\.Println inside a map range`
	}
}

func mapAccumulate(m map[int]int) []int {
	var out []int
	for k := range m {
		out = append(out, k) // want `append to out inside a map range without sorting afterwards`
	}
	return out
}

func sortedKeys(m map[int]int) []int {
	var keys []int
	for k := range m {
		keys = append(keys, k) // ok: sorted right below
	}
	sort.Ints(keys)
	return keys
}

func loopLocal(m map[int]int) int {
	total := 0
	for _, vs := range m {
		var batch []int
		batch = append(batch, vs) // ok: loop-local accumulator
		total += len(batch)
	}
	return total
}

func sliceRange(xs []int, eng *sim.Engine) {
	for _, x := range xs {
		x := x
		eng.Schedule(1, func() { _ = x }) // ok: slice iteration is ordered
	}
}
