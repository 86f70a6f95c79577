package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// train-rlbf times PPO training epochs of the RLBF agent at the paper's
// observation shape on SDSC-SP2 surrogates. A trial builds a trainer from
// scratch and runs one epoch, so every trial on a trace must produce the same
// epoch statistics and weights. A round is one trial on each of trainTraces
// traces: an epoch's cost depends on its trace (8% between two seeds), and a
// round averages that out. After the rounds, the last trained agent is
// evaluated greedily as for Table 4 and schedules a few more surrogate
// traces, which checks its schedules and drives the simulator's step loop.
const (
	trainTraces    = 3
	trainRounds    = 2 // at least; more while time is left
	trainJobs      = 10000
	trainObs       = 128 // paper: MaxObs 128
	trainTraj      = 16
	trainEpisode   = 256 // paper: 256-job episodes
	trainIters     = 20
	trainMiniBatch = 1024
	evalSeqs       = 10 // paper: 10 sequences of 1024 jobs
	evalLen        = 1024
	greedySeqs     = 4
)

// trainTrial is one trial's outcome.
type trainTrial struct {
	trn               *core.Trainer
	tr                *trace.Trace
	cfg               core.TrainConfig
	setup, epoch      cpuSpan // CPU time of the set-up and of the epoch
	epochS            float64 // the epoch's wall-clock seconds
	rolloutS, updateS float64 // traced trials only
	stats             core.EpochStats
	digest            string // epoch statistics and final weights
	evalS, evalBSLD   float64
	greedyDigest      string // evaluation and greedy schedules
}

func trainSetup(o options, rec *recorder) (*core.Trainer, *trace.Trace, core.TrainConfig, *tracedPolicy, *tracedEstimator, error) {
	tr := trace.SyntheticSDSCSP2(trainJobs, o.Seed)
	cfg := core.DefaultTrainConfig()
	cfg.Obs.MaxObs = trainObs
	cfg.TrajPerEpoch = trainTraj
	cfg.EpisodeLen = trainEpisode
	cfg.PPO.PiIters = trainIters
	cfg.PPO.VIters = trainIters
	cfg.PPO.MiniBatch = trainMiniBatch
	cfg.Workers = o.Workers
	cfg.Seed = o.Seed
	var pol *tracedPolicy
	var est *tracedEstimator
	if rec != nil {
		pol = newTracedPolicy(cfg.BasePolicy, rec)
		est = newTracedEstimator(cfg.Est, rec)
		cfg.BasePolicy, cfg.Est = pol, est
	}
	trn, err := core.NewTrainer(tr, cfg)
	return trn, tr, cfg, pol, est, err
}

// runTrial sets up a trainer and runs one epoch.
func runTrial(o options, rec *recorder) (*trainTrial, error) {
	calibrate()
	var trn *core.Trainer
	var tr *trace.Trace
	var cfg core.TrainConfig
	var pol *tracedPolicy
	var est *tracedEstimator
	setup, err := measure(func() (err error) {
		trn, tr, cfg, pol, est, err = trainSetup(o, rec)
		return err
	})
	if err != nil {
		return nil, err
	}
	calibrate()
	res := &trainTrial{trn: trn, tr: tr, cfg: cfg, setup: setup}
	var e0 int64
	if rec != nil {
		e0 = rec.now()
	}
	t1 := time.Now()
	if res.epoch, err = measure(func() (err error) {
		res.stats, err = trn.RunEpoch()
		return err
	}); err != nil {
		return nil, err
	}
	res.epochS = time.Since(t1).Seconds()
	if rec != nil {
		// The rollouts' final call into the policy or the estimator marks
		// the start of the PPO update.
		e1 := rec.now()
		rec.end("core.epoch", e0)
		last := max(pol.last.Load(), est.last.Load())
		res.rolloutS = float64(last-e0) / 1e9
		res.updateS = float64(e1-last) / 1e9
	}
	calibrate()
	h := sha256.New()
	fmt.Fprintf(h, "%+v\n", res.stats)
	if err := core.ExportModel(trn.Agent(), cfg.BasePolicy.Name(), tr.Name, 1).Write(h); err != nil {
		return nil, err
	}
	res.digest = hex.EncodeToString(h.Sum(nil))
	return res, nil
}

// trainOn returns o set to train on round trace k: the run's own trace for
// k = 0, further traces of the same system from sub-seeds otherwise.
func trainOn(o options, k int) options {
	if k > 0 {
		o.Seed = subSeed(o.Seed, 2000+k)
	}
	return o
}

// greedy evaluates the trial's agent as for Table 4, then lets it schedule
// greedySeqs independent surrogate traces step by step (as sim.step and
// core.decide spans when rec is non-nil), and checks those schedules.
func (t *trainTrial) greedy(o options, rec *recorder) error {
	t0 := time.Now()
	ec := core.EvalConfig{Sequences: evalSeqs, SeqLen: evalLen, Seed: o.Seed, Workers: o.Workers}
	mean, per, err := core.EvaluateAgent(t.trn.Agent(), t.tr, t.cfg.BasePolicy, ec)
	if err != nil {
		return err
	}
	t.evalS, t.evalBSLD = time.Since(t0).Seconds(), mean
	h := sha256.New()
	fmt.Fprintf(h, "%v\n", per)
	for i := 0; i < greedySeqs; i++ {
		seq := trace.SyntheticSDSCSP2(evalLen, subSeed(o.Seed, 1000+i))
		bf := t.trn.Agent().Fresh()
		if rec != nil {
			bf = newTracedBackfiller(bf, rec, "core.decide")
		}
		recs, _, err := replayOnce(seq, sim.Config{Policy: t.cfg.BasePolicy, Backfiller: bf}, rec)
		if err != nil {
			return err
		}
		if err := checkSchedule(seq.Jobs, recs, seq.Procs); err != nil {
			return fmt.Errorf("greedy agent schedule: %w", err)
		}
		fmt.Fprintf(h, "%s\n", recordDigest(recs))
	}
	t.greedyDigest = hex.EncodeToString(h.Sum(nil))
	return nil
}

func runTrain(o options) (*report, error) {
	rep := newReport()
	if o.Trace {
		return trainTraced(o, rep)
	}
	var setups []cpuSpan
	var rounds [][]cpuSpan // each round's epochs
	var wall []float64     // epochs, wall-clock ms
	first := make([]*trainTrial, trainTraces)
	var last *trainTrial
	deadline := time.Now().Add(time.Duration(o.Seconds * float64(time.Second)))
	for r := 0; r < trainRounds || time.Now().Before(deadline); r++ {
		var epochs []cpuSpan
		for k := range trainTraces {
			res, err := runTrial(trainOn(o, k), nil)
			if err != nil {
				return nil, err
			}
			rep.Attempted++
			if first[k] == nil {
				first[k] = res
			} else if res.digest != first[k].digest {
				rep.fail("train: round %d trace %d digest %s differs from the first trial's %s (stats %+v vs %+v)",
					r, k, res.digest[:12], first[k].digest[:12], res.stats, first[k].stats)
				rep.Failed++
			}
			last = res
			setups = append(setups, res.setup)
			epochs = append(epochs, res.epoch)
			wall = append(wall, res.epochS*1000)
		}
		rounds = append(rounds, epochs)
	}
	var setupS, rates []float64
	for _, sp := range setups {
		setupS = append(setupS, sp.ref())
	}
	for _, epochs := range rounds {
		var t float64
		for _, sp := range epochs {
			t += sp.ref()
		}
		rates = append(rates, trainTraces*trainTraj*trainEpisode/t)
	}
	rep.set("setup_s", median(setupS), "s", len(setupS))
	rep.set("throughput_per_ref_cpu_s", median(rates), "1/s", len(rates))
	if err := last.greedy(o, nil); err != nil {
		return nil, err
	}
	evalBSLD, steps := last.evalBSLD, first[0].stats.Steps
	first, last = nil, nil // let the peak-heap passes start clean
	// An epoch's heap grows with its number of decisions, which depends on
	// the trace, so the peak is the mean over the round's traces.
	var mems []float64
	for k := range trainTraces {
		mo := trainOn(o, k)
		mem, err := o.Heap.peakLive(func() error {
			_, err := runTrial(mo, nil)
			return err
		})
		if err != nil {
			return nil, err
		}
		mems = append(mems, mem)
	}
	var mem float64
	for _, m := range mems {
		mem += m
	}
	rep.set("mem_peak_mb", mem/float64(len(mems)), "MB", len(mems))
	fmt.Printf("train-rlbf: %d rounds of %d trials, wall-clock epoch median %.4g ms, slowest %.4g ms, %d decisions per epoch on the run's trace, eval bsld %.6g\n",
		len(rounds), trainTraces, median(wall), quantile(wall, 1), steps, evalBSLD)
	return rep, nil
}

// trainTraced runs one untraced and one traced trial with their greedy
// evaluations; they must agree.
func trainTraced(o options, rep *report) (*report, error) {
	plain, err := runTrial(o, nil)
	if err != nil {
		return nil, err
	}
	if err := plain.greedy(o, nil); err != nil {
		return nil, err
	}
	traced, err := runTrial(o, o.Spans)
	if err != nil {
		return nil, err
	}
	if err := traced.greedy(o, o.Spans); err != nil {
		return nil, err
	}
	rep.Attempted = 2
	if traced.digest != plain.digest || traced.greedyDigest != plain.greedyDigest {
		rep.fail("train: traced trial digests %s/%s differ from the untraced %s/%s",
			traced.digest[:12], traced.greedyDigest[:12], plain.digest[:12], plain.greedyDigest[:12])
		rep.Failed++
	}
	setLayers(rep, o.Spans)
	st := traced.stats
	rep.set("core.epoch.n", 1, "count", 1)
	rep.set("core.epoch.s", traced.epochS, "s", 1)
	rep.set("core.decisions.n", float64(st.Steps), "count", st.Steps)
	rep.set("core.violations.n", float64(st.Violations), "count", st.Violations)
	rep.set("ppo.iters.n", float64(st.Update.PiIters+st.Update.VIters), "count", 1)
	rep.set("core.rollout_s", traced.rolloutS, "s", 1)
	rep.set("ppo.update_s", traced.updateS, "s", 1)
	rep.set("core.eval.s", traced.evalS, "s", 1)
	rep.set("core.eval.bsld", traced.evalBSLD, "bsld", evalSeqs)
	rep.set("wall.throughput_per_s", trainTraj*trainEpisode/plain.epochS, "1/s", 1)
	rep.set("trace.gen.s", traced.setup.cpu.Seconds(), "s", 1)
	rep.set("trace.overhead_ratio", (traced.epochS+traced.evalS)/(plain.epochS+plain.evalS)-1, "ratio", 1)
	return rep, nil
}
