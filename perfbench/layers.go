package main

// layerMetric is one per-layer metric name and its unit.
type layerMetric struct{ name, unit string }

// perLayerMetrics are the traced run's metrics, in print order; they mirror
// BENCHMARK.json. Every workload prints all of them: a layer a workload does
// not run reads 0, which is the prediction README.md states for it.
var perLayerMetrics = func() []layerMetric {
	ms := []layerMetric{
		{"backfill.call.n", "count"}, {"backfill.call.s", "s"}, {"backfill.call.p99_us", "us"},
		{"backfill.cand.mean", "count"}, {"backfill.start.n", "count"}, {"backfill.useful_ratio", "ratio"},
		{"sim.step.n", "count"}, {"sim.step.self_s", "s"},
		{"sched.score.n", "count"}, {"est.n", "count"},
		{"core.epoch.n", "count"}, {"core.epoch.s", "s"}, {"core.decisions.n", "count"},
		{"core.violations.n", "count"}, {"ppo.iters.n", "count"}, {"core.rollout_s", "s"},
		{"ppo.update_s", "s"}, {"core.eval.s", "s"}, {"core.eval.bsld", "bsld"},
		{"core.decide.n", "count"}, {"core.decide.s", "s"},
	}
	for _, role := range []string{"primary", "follower"} {
		for _, kind := range []string{"cmd", "hist", "snap"} {
			p := "wal." + role + "." + kind + "."
			ms = append(ms,
				layerMetric{p + "write.n", "count"}, layerMetric{p + "write.bytes", "bytes"},
				layerMetric{p + "fsync.n", "count"}, layerMetric{p + "fsync.s", "s"},
				layerMetric{p + "fsync.p99_us", "us"})
		}
	}
	return append(ms,
		layerMetric{"repl.poll.n", "count"}, layerMetric{"repl.poll.bytes", "bytes"},
		layerMetric{"repl.poll.s", "s"}, layerMetric{"repl.lag.max", "records"},
		layerMetric{"repl.ack_timeouts.n", "count"},
		layerMetric{"client.submit.n", "count"}, layerMetric{"client.submit.s", "s"},
		layerMetric{"http.submit.s", "s"}, layerMetric{"net.submit.s", "s"},
		layerMetric{"serve.round.submit.s", "s"}, layerMetric{"serve.wait.submit.s", "s"},
		layerMetric{"http.status.s", "s"}, layerMetric{"client.submit.p50_ms", "ms"},
		layerMetric{"client.status.p99_ms", "ms"},
		layerMetric{"gen.late_p99_ms", "ms"},
		layerMetric{"wall.throughput_per_s", "1/s"},
		layerMetric{"trace.gen.s", "s"}, layerMetric{"trace.overhead_ratio", "ratio"},
	)
}()

var perLayer = func() []string {
	names := make([]string, len(perLayerMetrics))
	for i, m := range perLayerMetrics {
		names[i] = m.name
	}
	return names
}()

// setLayers fills every per-layer metric the recorder can answer, and zero
// for the rest; workloads then set the metrics only they can compute.
func setLayers(rep *report, rec *recorder) {
	for _, m := range perLayerMetrics {
		rep.set(m.name, 0, m.unit, 0)
	}
	count := func(name, counter string) {
		v := rec.counter(counter).Load()
		rep.set(name, float64(v), rep.Metrics[name].Unit, int(v))
	}
	calls, callS, callP99 := rec.layer("backfill.call")
	rep.set("backfill.call.n", float64(calls), "count", calls)
	rep.set("backfill.call.s", callS, "s", calls)
	rep.set("backfill.call.p99_us", callP99, "us", calls)
	count("backfill.start.n", "backfill.start")
	if calls > 0 {
		rep.set("backfill.cand.mean", float64(rec.counter("backfill.cand").Load())/float64(calls), "count", calls)
		rep.set("backfill.useful_ratio", float64(rec.counter("backfill.useful").Load())/float64(calls), "ratio", calls)
	}
	steps, stepS, _ := rec.layer("sim.step")
	decides, decideS, _ := rec.layer("core.decide.call")
	rep.set("sim.step.n", float64(steps), "count", steps)
	if steps > 0 {
		rep.set("sim.step.self_s", stepS-callS-decideS, "s", steps)
	}
	rep.set("core.decide.n", float64(decides), "count", decides)
	rep.set("core.decide.s", decideS, "s", decides)
	count("sched.score.n", "sched.score")
	count("est.n", "est")
	for _, role := range []string{"primary", "follower"} {
		for _, kind := range []string{"cmd", "hist", "snap"} {
			p := "wal." + role + "." + kind
			count(p+".write.n", p+".write.n")
			count(p+".write.bytes", p+".write.bytes")
			n, s, p99 := rec.layer(p + ".fsync")
			rep.set(p+".fsync.n", float64(n), "count", n)
			rep.set(p+".fsync.s", s, "s", n)
			rep.set(p+".fsync.p99_us", p99, "us", n)
		}
	}
	polls, pollS, _ := rec.layer("repl.poll")
	rep.set("repl.poll.n", float64(polls), "count", polls)
	rep.set("repl.poll.s", pollS, "s", polls)
	count("repl.poll.bytes", "repl.poll.bytes")
}
