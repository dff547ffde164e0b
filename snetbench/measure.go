package main

import (
	"math"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs is sorted in place. Empty input gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(xs)-1)
	return xs[lo] + (pos-float64(lo))*(xs[hi]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// enoughBeyond reports whether n samples leave at least ten beyond the
// q-quantile, the least a reported tail percentile may rest on.
func enoughBeyond(n int, q float64) bool { return float64(n)*(1-q) >= 10-1e-9 }

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// usage is a snapshot of the process counters a phase is charged with.
type usage struct {
	wall              time.Time
	cpu               time.Duration
	mallocs, bytes    uint64
	gcCycles          uint32
	gcPauseTotalNanos uint64
}

func snapshot() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{wall: time.Now(), cpu: cpuTime(), mallocs: ms.Mallocs,
		bytes: ms.TotalAlloc, gcCycles: ms.NumGC, gcPauseTotalNanos: ms.PauseTotalNs}
}

// cost is the difference between two snapshots.
type cost struct {
	wall, cpu      time.Duration
	mallocs, bytes uint64
	gcCycles       uint32
	gcPause        time.Duration
}

func (u usage) since(prev usage) cost {
	return cost{
		wall:     u.wall.Sub(prev.wall),
		cpu:      u.cpu - prev.cpu,
		mallocs:  u.mallocs - prev.mallocs,
		bytes:    u.bytes - prev.bytes,
		gcCycles: u.gcCycles - prev.gcCycles,
		gcPause:  time.Duration(u.gcPauseTotalNanos - prev.gcPauseTotalNanos),
	}
}

func (c cost) plus(o cost) cost {
	return cost{wall: c.wall + o.wall, cpu: c.cpu + o.cpu, mallocs: c.mallocs + o.mallocs,
		bytes: c.bytes + o.bytes, gcCycles: c.gcCycles + o.gcCycles, gcPause: c.gcPause + o.gcPause}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// durationsMS converts durations to milliseconds for quantile.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// mix64 is splitmix64: the hash every seq-indexed input is derived from,
// so an input is a closed-form function of (seed, seq) and nothing about
// it has to be stored to check the output.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unitFloat maps a hash to [0, 1).
func unitFloat(h uint64) float64 { return float64(h>>11) / (1 << 53) }
