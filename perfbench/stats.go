package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// samples is a list of measurements; add stores durations in seconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, d.Seconds()) }

// quantile returns the q-quantile by linear interpolation between the
// closest ranks, or 0 for an empty list.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	v := append([]float64(nil), s...)
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo := int(pos)
	if lo+1 >= len(v) {
		return v[len(v)-1]
	}
	frac := pos - float64(lo)
	return v[lo]*(1-frac) + v[lo+1]*frac
}

func (s samples) sum() float64 {
	t := 0.0
	for _, x := range s {
		t += x
	}
	return t
}

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	return s.sum() / float64(len(s))
}

// repeatSetup runs one set-up at least minReps times, and again while less
// than minTotal has been spent, and returns the last set-up's state (the
// workload runs on it) and the median duration. The previous repetition's
// state is collected before each timing.
func repeatSetup[S any](minReps int, minTotal time.Duration, build func(rep int) (S, time.Duration)) (S, float64) {
	var st S
	var ds samples
	total := time.Duration(0)
	for rep := 0; rep < minReps || (total < minTotal && rep < 1000); rep++ {
		var zero S
		st = zero
		runtime.GC()
		var d time.Duration
		st, d = build(rep)
		ds.add(d)
		total += d
	}
	return st, ds.quantile(0.5)
}

// liveHeapMB forces a full collection and returns the live heap in MiB.
// Callers keep the workload's state reachable across the call.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// gcPauseTotal returns the cumulative stop-the-world GC pause time.
func gcPauseTotal() time.Duration {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return time.Duration(ms.PauseTotalNs)
}

// heapAllocObjects returns the cumulative count of heap objects allocated
// by the process, without stopping the world.
func heapAllocObjects() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// splitmix64 is a stateless 64-bit mixer: pair i of a sweep is a pure
// function of (seed, i), so any worker can draw it.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// pairAt returns the i-th uniform pair of distinct nodes for a seed.
func pairAt(seed int64, i int, n int) (s, t int) {
	for j := uint64(0); ; j++ {
		h := splitmix64(uint64(seed)*0x2545f4914f6cdd1d ^ splitmix64(uint64(i)<<8|j))
		s, t = int((h>>32)%uint64(n)), int((h&0xffffffff)%uint64(n))
		if s != t {
			return s, t
		}
	}
}
