package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// procSample is a point-in-time reading of the process's own costs.
type procSample struct {
	cpu      time.Duration // user + system CPU
	mallocs  uint64        // heap objects allocated since start
	gcCycles uint64
	gcCPU    float64 // GC CPU seconds (runtime estimate)
}

var procMetrics = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

func readProc() procSample {
	metrics.Read(procMetrics)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return procSample{
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:  procMetrics[0].Value.Uint64(),
		gcCycles: procMetrics[1].Value.Uint64(),
		gcCPU:    procMetrics[2].Value.Float64(),
	}
}

// sub returns the costs accumulated between b and a.
func (a procSample) sub(b procSample) procSample {
	return procSample{
		cpu:      a.cpu - b.cpu,
		mallocs:  a.mallocs - b.mallocs,
		gcCycles: a.gcCycles - b.gcCycles,
		gcCPU:    a.gcCPU - b.gcCPU,
	}
}

func (a procSample) add(b procSample) procSample {
	return procSample{
		cpu:      a.cpu + b.cpu,
		mallocs:  a.mallocs + b.mallocs,
		gcCycles: a.gcCycles + b.gcCycles,
		gcCPU:    a.gcCPU + b.gcCPU,
	}
}

var liveHeapSample = []metrics.Sample{{Name: "/gc/heap/live:bytes"}}

// liveHeapMB forces a collection and returns the live heap in MB: what the
// caller still references at this point.
func liveHeapMB() float64 {
	runtime.GC()
	metrics.Read(liveHeapSample)
	return float64(liveHeapSample[0].Value.Uint64()) / (1 << 20)
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation;
// xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := q * float64(len(xs)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return xs[lo] + (xs[hi]-xs[lo])*(rank-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// cv is the coefficient of variation (stddev / mean) of xs.
func cv(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	if mean == 0 {
		return 0
	}
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return math.Sqrt(ss/float64(len(xs))) / mean
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
