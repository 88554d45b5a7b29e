package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	idve "dve/internal/dve"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks. It does not modify xs; an empty input gives NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// minTail is how many samples must lie beyond a reported percentile for it
// to count as measured rather than as the largest sample in disguise.
const minTail = 10

// tailSamples is the number of samples beyond the q-quantile of n samples.
func tailSamples(q float64, n int) int {
	// The epsilon absorbs 1-q rounding below its decimal value (1-0.9 < 0.1).
	return int(math.Floor(float64(n)*(1-q) + 1e-9))
}

// fingerprint is the SHA-256 of a run's deterministic output: the ROI
// cycle count plus the canonical JSON of its counters. Two runs of one
// configuration must agree on it whatever engine worker count ran them.
func fingerprint(r *idve.Result) (string, error) {
	b, err := json.Marshal(r.Counters)
	if err != nil {
		return "", fmt.Errorf("encoding counters: %w", err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%d\n", r.Cycles)
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// hostSample is the process-wide host cost of one measured unit of work.
type hostSample struct {
	wall   time.Duration
	cpu    time.Duration // user + system CPU of the whole process
	allocs uint64
	bytes  uint64
}

// hostSamples accumulates the samples of a measured window.
type hostSamples struct {
	walls, opsPerS, cpuPerMop, allocs, bytes []float64
}

// add records one sample that simulated ops operations.
func (h *hostSamples) add(hs hostSample, ops float64) {
	wall := hs.wall.Seconds()
	h.walls = append(h.walls, wall)
	h.opsPerS = append(h.opsPerS, ops/wall)
	h.cpuPerMop = append(h.cpuPerMop, hs.cpu.Seconds()/ops*1e6)
	h.allocs = append(h.allocs, float64(hs.allocs)/ops)
	h.bytes = append(h.bytes, float64(hs.bytes)/ops)
}

// hostMeter captures process counters at the start of a measured unit.
type hostMeter struct {
	t0     time.Time
	cpu0   time.Duration
	allocs uint64
	bytes  uint64
}

func startMeter() hostMeter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return hostMeter{t0: time.Now(), cpu0: processCPU(), allocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

func (m hostMeter) stop() hostSample {
	wall := time.Since(m.t0)
	cpu := processCPU() - m.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return hostSample{wall: wall, cpu: cpu, allocs: ms.Mallocs - m.allocs, bytes: ms.TotalAlloc - m.bytes}
}

// processCPU is the user plus system CPU time the process has used so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// ratio is a/b, or 0 when b is 0 (a count that never happened).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
