package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// pass is one timed phase of a workload: everything after its set-up, from
// the first cell to the last.
type pass struct {
	traced bool
	setupS float64
	// moreSetupS are extra set-up samples the pass took without running.
	moreSetupS []float64
	wallS      float64
	cpuS       float64 // process user+sys time over the timed phase
	alloc      uint64  // heap bytes allocated over the timed phase
	cells      int
	failed     int // cells that returned an error
	hits       int // cells served from the result store
	// workerS is the worker-side cell time Worker.OnProgress reported,
	// summed over the pass (loopback workloads only).
	workerS     float64
	leaseErrors int // Worker.LeaseErrors (loopback workloads only)
	// trainS is the time spent in Trainer.Train (fig10 only).
	trainS float64
}

// meter samples the process clocks at the start of a timed phase.
type meter struct {
	t0     time.Time
	cpu0   float64
	alloc0 uint64
}

// startMeter collects garbage left by set-up, then starts the clocks, so a
// timed phase never pays for the previous phase's garbage.
func startMeter() meter {
	runtime.GC()
	return meter{t0: time.Now(), cpu0: cpuSeconds(), alloc0: heapAllocs()}
}

// startSetup collects the garbage of whatever ran before and returns the
// set-up's start time, so every set-up sample starts from the same heap
// state: a set-up takes milliseconds, and whether a collection falls
// inside it would otherwise decide most of its time.
func startSetup() time.Time {
	runtime.GC()
	return time.Now()
}

func (m meter) stop(p *pass) {
	p.wallS = time.Since(m.t0).Seconds()
	p.cpuS = cpuSeconds() - m.cpu0
	p.alloc = heapAllocs() - m.alloc0
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocs is the cumulative count of heap bytes allocated by the process.
func heapAllocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// median averages the two middle values of an even count.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest of p99.9, p99 and p90 that has at least ten
// samples beyond it, by nearest rank, with its label. Fewer than 100
// samples have no such percentile above the median; the maximum stands in
// and is labelled so.
func tail(xs []float64) (float64, string) {
	if len(xs) == 0 {
		return 0, "-"
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	for _, c := range []struct {
		perMille int
		label    string
	}{{999, "p99.9"}, {990, "p99"}, {900, "p90"}} {
		rank := (c.perMille*n + 999) / 1000 // ceil(perMille/1000 · n)
		if n-rank >= 10 {
			return s[rank-1], c.label
		}
	}
	return s[n-1], "max"
}
