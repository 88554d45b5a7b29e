package sim

import (
	"testing"
	"testing/quick"
)

func TestScheduleOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(10, func() { got = append(got, 2) })
	e.Schedule(5, func() { got = append(got, 1) })
	e.Schedule(10, func() { got = append(got, 3) }) // same cycle: FIFO by seq
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 10 {
		t.Fatalf("Now() = %d, want 10", e.Now())
	}
}

func TestZeroDelayRunsSameCycle(t *testing.T) {
	e := NewEngine()
	var at Cycle
	e.Schedule(7, func() {
		e.Schedule(0, func() { at = e.Now() })
	})
	e.Run()
	if at != 7 {
		t.Fatalf("zero-delay event ran at %d, want 7", at)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	fired := 0
	for _, d := range []Cycle{1, 2, 3, 10, 20} {
		e.Schedule(d, func() { fired++ })
	}
	e.RunUntil(5)
	if fired != 3 {
		t.Fatalf("fired = %d, want 3", fired)
	}
	if e.Now() != 5 {
		t.Fatalf("Now() = %d, want 5", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("Pending() = %d, want 2", e.Pending())
	}
	e.Run()
	if fired != 5 || e.Now() != 20 {
		t.Fatalf("after Run: fired=%d now=%d", fired, e.Now())
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.Schedule(1, func() { fired++; e.Stop() })
	e.Schedule(2, func() { fired++ })
	e.Run()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1 (Stop should halt)", fired)
	}
	// A later Run resumes.
	e.Run()
	if fired != 2 {
		t.Fatalf("fired = %d, want 2 after resume", fired)
	}
}

func TestAtPanicsOnPast(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("At in the past did not panic")
		}
	}()
	e.At(5, func() {})
}

// Property: events always fire at their scheduled cycle, in non-decreasing
// time order, and equal-time events fire in scheduling order, for any set of
// delays. Each initial event may schedule a child from its handler, so the
// run crosses the 4096-cycle ring wrap and migrates overflow events into the
// ring while popped slab slots are being reused. The delay domains are:
//   - arbitrary: any uint16 delay, so every bucket offset and up to 16 ring
//     revolutions;
//   - grid: multiples of 128 cycles up to three revolutions, so many events
//     share a cycle;
//   - clustered: the grid plus a 0-7 cycle offset, so shared cycles fall off
//     the 64-cycle bitmap words and one word holds several occupied buckets.
func TestEventOrderProperty(t *testing.T) {
	domains := []struct {
		name  string
		delay func(uint16) Cycle
	}{
		{"arbitrary", func(d uint16) Cycle { return Cycle(d) }},
		{"grid", func(d uint16) Cycle { return Cycle(d%97) * 128 }},
		{"clustered", func(d uint16) Cycle { return Cycle(d%97)*128 + Cycle(d>>13) }},
	}
	for _, dom := range domains {
		t.Run(dom.name, func(t *testing.T) {
			f := func(delays []uint16, children []uint16) bool {
				return eventOrderHolds(dom.delay, delays, children)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// eventOrderHolds schedules one event per delay (event i also schedules a
// child with delay children[i] when it fires) and checks the firing order.
func eventOrderHolds(delay func(uint16) Cycle, delays, children []uint16) bool {
	e := NewEngine()
	type firing struct {
		time, want Cycle
		idx        int
	}
	var fired []firing
	scheduled := 0
	var schedule func(d Cycle, child int)
	schedule = func(d Cycle, child int) {
		idx, want := scheduled, e.Now()+d
		scheduled++
		e.Schedule(d, func() {
			fired = append(fired, firing{e.Now(), want, idx})
			if child < len(children) {
				schedule(delay(children[child]), len(children))
			}
		})
	}
	for i, d := range delays {
		schedule(delay(d), i)
	}
	e.Run()
	if len(fired) != scheduled {
		return false
	}
	for i, f := range fired {
		if f.time != f.want {
			return false
		}
		if i == 0 {
			continue
		}
		if f.time < fired[i-1].time {
			return false
		}
		if f.time == fired[i-1].time && f.idx < fired[i-1].idx {
			return false
		}
	}
	return true
}

// The occupancy-bitmap scan starts mid-word when the window start is not a
// multiple of 64. With the window at cycle 70 (word 1, bit 6), events at 72
// and 75 share the start word above the shift; once they have fired, the
// only event left is at 4160, whose bucket (64) is bit 0 of the same word,
// so the scan must wrap all the way round into the low bits of the start
// word.
func TestRingScanWithinAndAroundStartWord(t *testing.T) {
	e := NewEngine()
	var got []Cycle
	note := func() { got = append(got, e.Now()) }
	e.Schedule(70, func() {
		note()
		e.Schedule(4090, note)
		e.Schedule(5, note)
		e.Schedule(2, note)
	})
	e.Run()
	want := []Cycle{70, 72, 75, 4160}
	if len(got) != len(want) {
		t.Fatalf("fired at %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired at %v, want %v", got, want)
		}
	}
}

func TestDaemonEventsDoNotKeepRunAlive(t *testing.T) {
	e := NewEngine()
	daemonFires := 0
	var tick func()
	tick = func() {
		daemonFires++
		e.ScheduleDaemon(10, tick)
	}
	e.ScheduleDaemon(10, tick)
	e.Schedule(35, func() {})
	e.Run() // must terminate despite the perpetual daemon
	if e.Now() != 35 {
		t.Fatalf("Run ended at %d, want 35", e.Now())
	}
	if daemonFires != 3 {
		t.Fatalf("daemon fired %d times before the last demand event, want 3", daemonFires)
	}
	// RunUntil drives daemons past the demand horizon.
	e.RunUntil(100)
	if daemonFires < 9 {
		t.Fatalf("daemon fired %d times by cycle 100", daemonFires)
	}
}
