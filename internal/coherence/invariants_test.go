package coherence

import (
	"math/rand"
	"strings"
	"testing"

	"dve/internal/cache"
	"dve/internal/topology"
)

// Fuzz-style audit: random access interleavings across cores and sockets
// must leave the full-size system in an invariant-respecting quiescent
// state, for every protocol. This is the simulator-scale complement of the
// bounded model checking in internal/mcheck.
func TestInvariantsUnderRandomTraffic(t *testing.T) {
	for _, p := range []topology.Protocol{topology.ProtoBaseline, topology.ProtoIntelMirror} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			s := newSys(p)
			r := rand.New(rand.NewSource(42))
			inflight := 0
			for i := 0; i < 20_000; i++ {
				core := r.Intn(s.Cfg.TotalCores())
				write := r.Intn(3) == 0
				// A small line pool maximizes sharing conflict.
				a := topology.Addr(r.Intn(512) * 64)
				inflight++
				s.Access(core, write, a, func() { inflight-- })
				if i%7 == 0 {
					s.Eng.Run() // interleave drain points
				}
			}
			s.Eng.Run()
			if inflight != 0 {
				t.Fatalf("%d accesses never completed", inflight)
			}
			for _, viol := range s.CheckInvariants() {
				t.Error(viol)
			}
		})
	}
}

func TestInvariantsCleanSystem(t *testing.T) {
	s := newSys(topology.ProtoBaseline)
	if v := s.CheckInvariants(); len(v) != 0 {
		t.Fatalf("fresh system violates invariants: %v", v)
	}
	access(t, s, 0, true, 0)
	access(t, s, 8, false, 0)
	access(t, s, 3, false, 4096)
	if v := s.CheckInvariants(); len(v) != 0 {
		t.Fatalf("simple sequence violates invariants: %v", v)
	}
}

// The audit must actually detect corruption (a checker that passes
// everything checks nothing). The exact report is pinned: the SWMR line
// names the holders in socket order and each violating line appears once.
func TestInvariantsDetectCorruption(t *testing.T) {
	setup := func() (*System, topology.Line) {
		s := newSys(topology.ProtoBaseline)
		access(t, s, 0, true, 0)  // socket 0 LLC holds line 0 in M
		access(t, s, 8, true, 64) // socket 1 LLC holds line 64 in M
		return s, s.AMap.LineOf(0)
	}
	for _, tc := range []struct {
		name  string
		state cache.State // what socket 1's LLC is forced to claim for line 0
		want  []string
	}{
		{"two writers", cache.Modified, []string{
			"LLC 1 holds 0x0 in M but home dir says M/owner 0",
			"SWMR: line 0x0 held by 2 writers / 0 readers (holders [{0 3} {1 3}]; home=0 dir=M owner=0 sharers=[true false])",
		}},
		{"writer plus reader", cache.Shared, []string{
			"SWMR: line 0x0 held by 1 writers / 1 readers (holders [{0 3} {1 1}]; home=0 dir=M owner=0 sharers=[true false])",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, l := setup()
			s.LLCs[1].store.Insert(l, tc.state)
			got := s.CheckInvariants()
			if strings.Join(got, "\n") != strings.Join(tc.want, "\n") {
				t.Fatalf("violations:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(tc.want, "\n"))
			}
		})
	}
}
