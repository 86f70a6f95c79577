package main

import (
	"fmt"
	"time"

	"repro/internal/backfill"
	"repro/internal/lublin"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// replay-cons replays windows of the huge-scale Lublin stream with FCFS and
// conservative backfilling. Each window starts shortly before the stream's
// weekly arrival peak, where the backlog and the reservation skyline grow
// deep, so the planner and the profile do most of the work.
//
// One window's cost varies about 45% between seeds (the backlog depth near
// saturation is a random walk), so a run replays replayWindows independent
// windows and reports their combined rate. The windows are replayed in whole
// passes, at least replayPasses of them, and each window counts with its
// median time; see README.md.
const (
	replayNodes   = 4096
	replayLoad    = 1.0
	replayWindows = 80
	replaySkip    = 6800 // jobs before the window: about 3.5 days of arrivals
	replayJobs    = 700
	replayPasses  = 3
	setupRepeats  = 3
)

func replayWindowsFor(seed uint64) []*trace.Trace {
	spec := lublin.Huge(replayNodes, 0, replayLoad)
	out := make([]*trace.Trace, replayWindows)
	for k := range out {
		out[k] = trace.Slice(spec.Generate(replaySkip+replayJobs, subSeed(seed, k)), replaySkip, replayJobs)
	}
	return out
}

// replayConfig is the workload's scheduler: FCFS with conservative
// backfilling on request-time estimates. rec, when non-nil, decorates the
// policy, the estimator and the backfiller.
func replayConfig(rec *recorder) sim.Config {
	if rec == nil {
		return sim.Config{Policy: sched.FCFS{}, Backfiller: backfill.NewConservative(backfill.RequestTime{})}
	}
	cons := backfill.NewConservative(newTracedEstimator(backfill.RequestTime{}, rec))
	return sim.Config{
		Policy:     newTracedPolicy(sched.FCFS{}, rec),
		Backfiller: newTracedBackfiller(cons, rec, "backfill"),
	}
}

// replayOnce replays tr step by step and returns its records and the CPU
// span of the step loop. When rec is non-nil, each scheduling round is recorded
// as a sim.step span.
func replayOnce(tr *trace.Trace, cfg sim.Config, rec *recorder) ([]metrics.Record, cpuSpan, error) {
	e, err := sim.NewEngine(tr, cfg)
	if err != nil {
		return nil, cpuSpan{}, err
	}
	sp, _ := measure(func() error {
		for {
			var t int64
			if rec != nil {
				t = rec.now()
			}
			if !e.Step() {
				return nil
			}
			if rec != nil {
				rec.end("sim.step", t)
			}
		}
	})
	return e.Records(), sp, nil
}

func runReplay(o options) (*report, error) {
	rep := newReport()
	var windows []*trace.Trace
	var setupSpans []cpuSpan
	for i := 0; i < setupRepeats; i++ {
		calibrate()
		sp, _ := measure(func() error {
			windows = replayWindowsFor(o.Seed)
			return nil
		})
		setupSpans = append(setupSpans, sp)
	}
	calibrate()
	var setups []float64
	for _, sp := range setupSpans {
		setups = append(setups, sp.ref())
	}
	rep.set("setup_s", median(setups), "s", len(setups))
	// Warm-up: one replay outside the measurement.
	if _, _, err := replayOnce(windows[0], replayConfig(nil), nil); err != nil {
		return nil, err
	}
	if o.Trace {
		return replayTraced(o, rep, windows, median(setups))
	}

	digests := make([]string, len(windows))
	spans := make([][]cpuSpan, len(windows))
	// Passes continue while another one fits in the time given.
	deadline := time.Now().Add(time.Duration(o.Seconds * float64(time.Second)))
	var passTime time.Duration
	var passRates []float64 // each pass's wall-clock rate, for the summary line
	for pass := 0; pass < replayPasses || time.Now().Add(passTime).Before(deadline); pass++ {
		t0 := time.Now()
		for k, w := range windows {
			calibrate()
			recs, sp, err := replayOnce(w, replayConfig(nil), nil)
			if err != nil {
				return nil, err
			}
			rep.Attempted++
			spans[k] = append(spans[k], sp)
			if !checkReplay(rep, w, recs, &digests[k]) {
				rep.Failed++
			}
		}
		passTime = time.Since(t0)
		passRates = append(passRates, float64(len(windows)*replayJobs)/passTime.Seconds())
	}
	calibrate()
	var total float64
	for _, ws := range spans {
		ts := make([]float64, len(ws))
		for i, sp := range ws {
			ts[i] = sp.ref()
		}
		total += median(ts)
	}
	rep.set("throughput_per_ref_cpu_s", float64(len(windows)*replayJobs)/total, "1/s", int(rep.Attempted))
	var mem []float64
	for _, w := range windows[:3] {
		m, err := o.Heap.peakLive(func() error {
			_, _, err := replayOnce(w, replayConfig(nil), nil)
			return err
		})
		if err != nil {
			return nil, err
		}
		mem = append(mem, m)
	}
	rep.set("mem_peak_mb", median(mem), "MB", len(mem))
	fmt.Printf("replay-cons: %d windows x %d jobs on %d nodes, wall-clock jobs/s by pass %.5g, digest %s\n",
		len(windows), replayJobs, replayNodes, passRates, combine(digests))
	return rep, nil
}

// checkReplay validates one replay's schedule and pins its digest: the first
// replay of a window sets *digest, later ones must reproduce it.
func checkReplay(rep *report, tr *trace.Trace, recs []metrics.Record, digest *string) bool {
	if err := checkSchedule(tr.Jobs, recs, tr.Procs); err != nil {
		rep.fail("replay: invalid schedule: %v", err)
		return false
	}
	d := recordDigest(recs)
	if *digest == "" {
		*digest = d
	} else if d != *digest {
		rep.fail("replay: record digest %s differs from the first replay's %s", d[:12], (*digest)[:12])
		return false
	}
	return true
}

// replayTraced replays windows untraced and traced in turn until the time is
// up, requiring identical schedules, and reports the per-layer metrics.
func replayTraced(o options, rep *report, windows []*trace.Trace, genS float64) (*report, error) {
	rec := o.Spans
	var untraced, traced, wall time.Duration
	deadline := time.Now().Add(time.Duration(o.Seconds * float64(time.Second)))
	for k := 0; k < len(windows) && (k < 2 || time.Now().Before(deadline)); k++ {
		var digest string
		t0 := time.Now()
		recs, sp, err := replayOnce(windows[k], replayConfig(nil), nil)
		if err != nil {
			return nil, err
		}
		wall += time.Since(t0)
		untraced += sp.cpu
		rep.Attempted++
		if !checkReplay(rep, windows[k], recs, &digest) {
			rep.Failed++
		}
		recs, sp, err = replayOnce(windows[k], replayConfig(rec), rec)
		if err != nil {
			return nil, err
		}
		traced += sp.cpu
		rep.Attempted++
		if !checkReplay(rep, windows[k], recs, &digest) {
			rep.Failed++
		}
	}
	setLayers(rep, rec)
	rep.set("wall.throughput_per_s", float64(rep.Attempted/2*replayJobs)/wall.Seconds(), "1/s", int(rep.Attempted/2))
	rep.set("trace.gen.s", genS, "s", setupRepeats)
	rep.set("trace.overhead_ratio", traced.Seconds()/untraced.Seconds()-1, "ratio", int(rep.Attempted/2))
	return rep, nil
}
