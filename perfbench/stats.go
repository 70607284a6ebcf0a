package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// samples is a concurrency-safe list of latencies in milliseconds.
type samples struct {
	mu sync.Mutex
	v  []float64
}

func (s *samples) add(d time.Duration) {
	s.mu.Lock()
	s.v = append(s.v, float64(d)/float64(time.Millisecond))
	s.mu.Unlock()
}

func (s *samples) values() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.v...)
}

// quantile returns the q-quantile (0..1) of vs by linear interpolation
// between closest ranks; NaN when vs is empty. vs is sorted in place.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	sort.Float64s(vs)
	pos := q * float64(len(vs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return vs[lo] + (vs[hi]-vs[lo])*(pos-float64(lo))
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

func durMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// cpuTime is the process's user+system CPU time so far (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapMB forces a GC and returns the live heap in MiB.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// gcPause returns the cumulative GC stop-the-world pause.
func gcPause() time.Duration {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return time.Duration(ms.PauseTotalNs)
}
