package main

import (
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host speed index. The reference host is a virtual machine whose
// physical host runs other machines' work, and that work slows this
// process's memory-bound code even in CPU time: one replay pass over the same
// 16 windows took 1.08 to 2.01 CPU-seconds within four minutes. A fixed
// calibration kernel, run between units of measured work, slowed with it.
// The bounded timings are therefore reported in reference CPU-seconds:
// measured process CPU time scaled by calibNominal over the kernel's CPU
// time around it. The kernel uses no code of the repository, so no change to
// the program can move it.
//
// The kernel is a toy reservation skyline, the shape of work the
// repository's planners do: a sorted slice of (time, free processors)
// segments, an earliest-start search for each new job, segment splits and a
// range update. It allocates nothing after its first call, so no garbage
// collection assist runs inside it.
const (
	calibNominal = 10 * time.Millisecond // the kernel's time on a reference host
	calibJobs    = 2400                  // jobs the kernel plans per call
	calibProcs   = 4096
	calibMaxSegs = 3000
	// calibWindow is how far from a span the kernel runs that scale it may
	// lie. Several runs are medianed: the process's own other threads (the
	// garbage collector, a follower catching up) can share a physical core
	// with the kernel and slow a single run of it threefold.
	calibWindow = 2 * time.Second
)

type calibSeg struct{ t, free int64 }

var calibProf = make([]calibSeg, 0, calibMaxSegs+2)

// calibSink keeps the kernel's result alive.
var calibSink int

// calibRun is one run of the kernel: when it ended and its CPU time.
type calibRun struct {
	at time.Time
	d  time.Duration
}

var calibRuns struct {
	sync.Mutex
	runs []calibRun
}

// calibrate runs the kernel once on the calling goroutine's thread and
// records the thread's CPU time for it. Workloads call it between units of
// measured work.
func calibrate() {
	runtime.LockOSThread()
	t0 := threadCPU()
	calibKernel()
	d := threadCPU() - t0
	runtime.UnlockOSThread()
	calibRuns.Lock()
	calibRuns.runs = append(calibRuns.runs, calibRun{time.Now(), d})
	calibRuns.Unlock()
}

// cpuSpan is a stretch of measured work: the process CPU time it took, and the
// middle of its wall-clock interval.
type cpuSpan struct {
	cpu time.Duration
	mid time.Time
}

// measure runs work and returns its cpuSpan.
func measure(work func() error) (cpuSpan, error) {
	t0, c0 := time.Now(), cpuNow()
	err := work()
	c1, t1 := cpuNow(), time.Now()
	return cpuSpan{cpu: c1 - c0, mid: t0.Add(t1.Sub(t0) / 2)}, err
}

// ref returns the span's CPU time in reference CPU-seconds: scaled by
// calibNominal over the median kernel time within calibWindow of the span,
// or over the nearest kernel run when none is that close. Call it once the
// kernel has run on both sides of the span.
func (s cpuSpan) ref() float64 {
	calibRuns.Lock()
	defer calibRuns.Unlock()
	var near []float64
	nearest, best := time.Duration(0), time.Duration(1<<62)
	for _, r := range calibRuns.runs {
		gap := r.at.Sub(s.mid).Abs()
		if gap <= calibWindow {
			near = append(near, r.d.Seconds())
		}
		if gap < best {
			nearest, best = r.d, gap
		}
	}
	k := nearest.Seconds()
	if len(near) > 0 {
		k = median(near)
	}
	return s.cpu.Seconds() * calibNominal.Seconds() / k
}

// calibSummary describes the run's kernel times.
func calibSummary() string {
	calibRuns.Lock()
	defer calibRuns.Unlock()
	ms := make([]float64, len(calibRuns.runs))
	for i, r := range calibRuns.runs {
		ms[i] = float64(r.d) / 1e6
	}
	return fmt.Sprintf("calibration kernel: median %.4g ms over %d runs (nominal %v), %.4g to %.4g ms",
		median(ms), len(ms), calibNominal, quantile(ms, 0), quantile(ms, 1))
}

// threadCPU reads CLOCK_THREAD_CPUTIME_ID. getrusage(RUSAGE_THREAD) would
// do, but it counts in scheduler ticks of 4 ms.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno)
	}
	return time.Duration(ts.Nano())
}

func calibKernel() {
	prof := append(calibProf[:0], calibSeg{0, calibProcs})
	x := uint64(0x9e3779b97f4a7c15)
	now := int64(0)
	for i := 0; i < calibJobs; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		w := int64(1 + x%512)
		d := int64(60 + (x>>20)%7200)
		// The earliest segment from which w processors stay free for d.
		start := prof[len(prof)-1].t
		for a := range prof {
			if prof[a].free < w {
				continue
			}
			ok := true
			for b := a; b < len(prof) && prof[b].t < prof[a].t+d; b++ {
				if prof[b].free < w {
					ok = false
					break
				}
			}
			if ok {
				start = prof[a].t
				break
			}
		}
		prof = calibSplit(prof, start)
		prof = calibSplit(prof, start+d)
		for k := range prof {
			if prof[k].t >= start && prof[k].t < start+d {
				prof[k].free -= w
			}
		}
		// Time moves on: segments wholly in the past are dropped.
		now += 30
		if k := calibSearch(prof, now+1); k > 1 {
			prof = append(prof[:0], prof[k-1:]...)
		}
		if len(prof) > calibMaxSegs {
			prof = append(prof[:0], calibSeg{now, calibProcs})
		}
	}
	calibSink += len(prof)
}

// calibSearch returns the first segment index with t >= at.
func calibSearch(prof []calibSeg, at int64) int {
	lo, hi := 0, len(prof)
	for lo < hi {
		m := (lo + hi) / 2
		if prof[m].t < at {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// calibSplit makes a segment boundary at t.
func calibSplit(prof []calibSeg, t int64) []calibSeg {
	k := calibSearch(prof, t)
	if k < len(prof) && prof[k].t == t {
		return prof
	}
	free := prof[k-1].free
	prof = append(prof, calibSeg{})
	copy(prof[k+1:], prof[k:])
	prof[k] = calibSeg{t, free}
	return prof
}
