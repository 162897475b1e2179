package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// percentile returns the q-quantile (0..1) of an ascending-sorted sample by
// the nearest-rank rule, so it is always one of the observed values.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// usage is a snapshot of the process-wide cost counters the end-to-end
// metrics are deltas of.
type usage struct {
	wall    time.Time
	cpu     time.Duration
	alloc   uint64
	mallocs uint64
	gcs     uint32
	pauseNs uint64
	gcCPU   float64 // seconds
}

func snapshotUsage() usage {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	u := usage{
		wall: time.Now(), cpu: cpuTime(),
		alloc: m.TotalAlloc, mallocs: m.Mallocs, gcs: m.NumGC, pauseNs: m.PauseTotalNs,
	}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		u.gcCPU = s[0].Value.Float64()
	}
	return u
}

// sleepUntil blocks until t. time.Sleep parks the goroutine on the
// runtime's timers, which on an otherwise idle process wake through a
// netpoll wait rounded up to a whole millisecond; the open-loop generators
// must not run that late, so they sleep in the kernel instead. A signal
// (the runtime preempts with SIGURG) ends a nanosleep early, hence the
// loop.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an early return only loops again
	}
}

// heapLive reads the bytes the last collection found live, without stopping
// the world; unlike the in-use figure it does not saw with the GC cycle.
func heapLive() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		return s[0].Value.Uint64()
	}
	return 0
}
