package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backfill"
	"repro/internal/lublin"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/serveclient"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/wal"
)

// serve-ha drives an in-process rlbf-serve primary through its real HTTP
// handler on loopback, with a warm-standby follower attached: conservative
// backfilling, default compaction and semi-synchronous replication acks. The
// WAL runs in group-commit mode: with an fsync per ack, every timing followed
// the host disk's latency instead of the daemon (see README.md). A shared
// manual clock advances by the Lublin stream's inter-arrival gaps, so the
// schedule the daemon computes does not depend on how fast the host is.
//
// A run is serveSegments segments, each on a fresh pair with its own stream.
// Phase 1 of a segment is an open loop at a fixed offered rate below
// capacity, mixing submits with status queries; latency is timed from each
// request's due time. Phase 2 is a closed loop of submits on every
// connection, which measures saturation throughput.
const (
	serveChunk     = 4096 // stream jobs generated at a time, on demand
	serveOpenRate  = 200  // phase-1 requests per second
	serveOpenShare = 0.4  // share of a segment spent in phase 1
	// serveStatusEvery makes every serveStatusEvery-th phase-1 request a
	// status query: one per three submits, the mix of the repository's own
	// load-generator gates (rlbf-serve -loadgen -status-every 3).
	serveStatusEvery = 4
	serveDrainAhead  = 10 * 365 * 24 * time.Hour
	// serveSegments splits a run into independent pairs and streams, so
	// one stream's load and one stretch of slow disk weigh less.
	serveSegments = 3
	// serveExtraSetups more pairs are started and closed without load, so
	// setup_s is a median over serveSegments+serveExtraSetups start-ups of a
	// few milliseconds each.
	serveExtraSetups = 18
)

// stream is a segment's seed-generated Lublin-1 submissions. It grows on
// demand, serveChunk jobs at a time, each chunk an independent Lublin-1 trace
// from its own sub-seed, so a faster daemon never runs out of input.
type stream struct {
	lub  lublin.Params
	seed uint64

	mu   sync.Mutex
	jobs []*trace.Job
	gaps []time.Duration // the clock advance before each job's submit
	genS float64         // time spent generating, summed
}

// at returns stream job i and the gap before it, generating chunks as needed.
func (s *stream) at(i int) (*trace.Job, time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i >= len(s.jobs) {
		t0 := time.Now()
		tr := s.lub.Generate(serveChunk, subSeed(s.seed, len(s.jobs)/serveChunk))
		for k, j := range tr.Jobs {
			// A chunk's first job arrives one mean inter-arrival time after
			// the previous chunk's last.
			gap := time.Duration(s.lub.MeanInterarrival) * time.Second
			switch {
			case k > 0:
				gap = time.Duration(j.Submit-tr.Jobs[k-1].Submit) * time.Second
			case len(s.jobs) == 0:
				gap = 0
			}
			s.jobs = append(s.jobs, j)
			s.gaps = append(s.gaps, gap)
		}
		s.genS += time.Since(t0).Seconds()
	}
	return s.jobs[i], s.gaps[i]
}

func (s *stream) generated() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.genS
}

// serveEnv is one primary + follower pair and its inputs.
type serveEnv struct {
	stream   *stream
	clk      *serve.ManualClock
	reg      *metrics.Registry
	pcfg     serve.Config
	primary  *serve.Scheduler
	server   *serve.Server
	httpSrv  *http.Server
	served   chan struct{}
	url      string
	follower *serve.Follower
	fcfg     serve.Config
}

func newServeEnv(o options, dir string, rec *recorder) (*serveEnv, error) {
	lub := lublin.Lublin1()
	env := &serveEnv{stream: &stream{lub: lub, seed: o.Seed}}
	env.stream.at(0) // the first chunk covers phase 1
	env.clk = serve.NewManualClock(time.Unix(1700000000, 0))
	env.reg = metrics.NewRegistry()

	var est backfill.Estimator = backfill.RequestTime{}
	var pol sched.Policy = sched.FCFS{}
	if rec != nil {
		est = newTracedEstimator(est, rec)
		pol = newTracedPolicy(pol, rec)
	}
	cons := backfill.NewConservative(est)
	base := serve.Config{
		// Twice Lublin-1's machine: on its own 256 processors the stream runs
		// near saturation, and the random backlog depth, not the daemon, set
		// each run's throughput.
		Procs: 2 * lub.Procs, Policy: pol, Estimator: est, TimeScale: 1, Clock: env.clk,
		SnapshotEvery: 30 * time.Second, RoundBudget: 2 * time.Second, WALNoSync: true,
	}
	env.pcfg = base
	env.pcfg.Name = "primary"
	env.pcfg.Backfiller = cons
	env.pcfg.Registry = env.reg
	env.pcfg.SnapshotPath = filepath.Join(dir, "primary", "state.json")
	env.pcfg.WALPath = filepath.Join(dir, "primary", "cmd.wal")
	// The follower gets its own backfiller: backfillers carry per-replay
	// scratch state, and serve.Config does not refuse a shared one.
	env.fcfg = base
	env.fcfg.Name = "follower"
	env.fcfg.Backfiller = cons.Fresh()
	env.fcfg.SnapshotPath = filepath.Join(dir, "follower", "state.json")
	env.fcfg.WALPath = filepath.Join(dir, "follower", "cmd.wal")
	env.fcfg.Lease = time.Hour // never promotes during a run
	transport := http.RoundTripper(&http.Transport{MaxIdleConnsPerHost: 1})
	if rec != nil {
		env.pcfg.Backfiller = newTracedBackfiller(cons, rec, "backfill")
		env.pcfg.FS = tracedFS{FS: wal.OSFS{}, rec: rec, role: "primary"}
		env.fcfg.FS = tracedFS{FS: wal.OSFS{}, rec: rec, role: "follower"}
		transport = &tracedTransport{base: transport, rec: rec}
	}
	for _, d := range []string{"primary", "follower"} {
		if err := os.MkdirAll(filepath.Join(dir, d), 0o755); err != nil {
			return nil, err
		}
	}

	var err error
	if env.primary, err = serve.New(env.pcfg); err != nil {
		return nil, err
	}
	env.primary.Start()
	env.server = serve.NewServer(env.primary, 256, 0)
	h := env.server.Handler()
	if rec != nil {
		h = tracedHandler(h, rec)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		env.primary.Drain()
		return nil, err
	}
	env.url = "http://" + ln.Addr().String()
	env.httpSrv = &http.Server{Handler: h}
	env.served = make(chan struct{})
	go func() {
		defer close(env.served)
		env.httpSrv.Serve(ln)
	}()
	env.follower, err = serve.NewFollower(env.fcfg, serve.FollowConfig{
		Peers: []string{env.url}, HTTP: &http.Client{Transport: transport},
	})
	if err != nil {
		env.close()
		return nil, err
	}
	env.follower.Start()
	return env, nil
}

// close stops the follower, the HTTP server and the primary, in that order,
// and returns the primary's drained state.
func (env *serveEnv) close() (*serve.State, error) {
	if env.follower != nil {
		env.follower.Stop()
		env.follower.Scheduler().Drain()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	env.httpSrv.Shutdown(ctx)
	<-env.served
	env.server.Close()
	return env.primary.Drain()
}

// ack is one acknowledged submission.
type ack struct {
	job    *trace.Job
	id     int
	submit int64
}

// load is the client side of a run: the stream position and every ack.
type load struct {
	env  *serveEnv
	next atomic.Int64 // next stream job to submit

	mu       sync.Mutex
	acks     []ack
	problems []string

	clientSubmitS float64 // client-observed submit time, summed
	clientSubmitN int
}

func (l *load) problem(format string, args ...any) {
	l.mu.Lock()
	l.problems = append(l.problems, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

func newClient(url string) *serveclient.Client {
	return serveclient.New([]string{url}, &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}})
}

// submit advances the shared clock by the next stream gap and submits that
// job. It reports false, and records a problem, when the submit failed.
func (l *load) submit(c *serveclient.Client) (time.Time, bool) {
	i := l.next.Add(1) - 1
	j, gap := l.env.stream.at(int(i))
	l.env.clk.Advance(gap)
	t0 := time.Now()
	res, err := c.SubmitOnce(serve.JobRequest{Procs: j.Procs, Runtime: j.Runtime, Request: j.Request})
	done := time.Now()
	if err != nil || res.Code != http.StatusAccepted || res.Submit == nil {
		l.problem("submit of stream job %d: code %d, error %v", i, res.Code, err)
		return done, false
	}
	l.mu.Lock()
	l.acks = append(l.acks, ack{job: j, id: res.Submit.ID, submit: res.Submit.Submit})
	l.clientSubmitS += done.Sub(t0).Seconds()
	l.clientSubmitN++
	l.mu.Unlock()
	return done, true
}

// pick returns a previously acked job ID chosen by r, or 0 when there is
// none.
func (l *load) pick(r uint64) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.acks) == 0 {
		return 0
	}
	return l.acks[r%uint64(len(l.acks))].id
}

// openResult is phase 1's client-side measurements, in milliseconds.
type openResult struct {
	submitLat, statusLat, late []float64
	// bySecond holds the submit latencies by the second of the phase in
	// which each submit was due.
	bySecond [][]float64
	ops      int
}

// p50s returns the median submit latency of each second of the phase that
// had submits.
func (r openResult) p50s() []float64 {
	var out []float64
	for _, lat := range r.bySecond {
		if len(lat) > 0 {
			out = append(out, median(lat))
		}
	}
	return out
}

type openOp struct {
	due    time.Time
	status bool // a status query; a submit otherwise
	r      uint64
	sec    int // second of the phase the request was due in
}

// openLoop offers requests at serveOpenRate for d, on o.Workers connections.
// A request waits for a free connection, and its latency counts from the
// time it was due.
func (l *load) openLoop(o options, d time.Duration) openResult {
	res := openResult{bySecond: make([][]float64, int(d.Seconds()+0.999))}
	var mu sync.Mutex
	work := make(chan openOp)
	var wg sync.WaitGroup
	for w := 0; w < o.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(l.env.url)
			for op := range work {
				id := 0
				if op.status {
					id = l.pick(op.r) // 0 when nothing is acked yet: submit instead
				}
				var done time.Time
				if id == 0 {
					var ok bool
					if done, ok = l.submit(c); !ok {
						continue
					}
				} else {
					st, err := c.Status(id)
					done = time.Now()
					if err != nil || st.State == "unknown" || st.ID != id {
						l.problem("status of acked job %d: %+v, error %v", id, st, err)
						continue
					}
				}
				ms := float64(done.Sub(op.due)) / 1e6
				mu.Lock()
				if id == 0 {
					res.submitLat = append(res.submitLat, ms)
					res.bySecond[op.sec] = append(res.bySecond[op.sec], ms)
				} else {
					res.statusLat = append(res.statusLat, ms)
				}
				mu.Unlock()
			}
		}()
	}
	rng := stats.NewRNG(o.Seed ^ 0x5eed)
	start := time.Now()
	interval := time.Second / serveOpenRate
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if due.Sub(start) >= d {
			break
		}
		time.Sleep(time.Until(due))
		op := openOp{due: due, status: i%serveStatusEvery == serveStatusEvery-1, r: rng.Uint64(), sec: int(due.Sub(start) / time.Second)}
		work <- op
		res.late = append(res.late, float64(time.Since(due))/1e6)
		res.ops++
	}
	close(work)
	wg.Wait()
	return res
}

// closedLoop submits back to back on o.Workers connections for d, in
// one-second slices with a run of the calibration kernel between them. It
// returns, for each slice, the submits completed, its wall-clock seconds
// and its CPU span.
func (l *load) closedLoop(o options, d time.Duration) (submits, wallS []float64, spans []cpuSpan) {
	clients := make([]*serveclient.Client, o.Workers)
	for w := range clients {
		clients[w] = newClient(l.env.url)
	}
	calibrate()
	for s := 0; s < int(d/time.Second); s++ {
		var n atomic.Int64
		start := time.Now()
		end := start.Add(time.Second)
		sp, _ := measure(func() error {
			var wg sync.WaitGroup
			for _, c := range clients {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for time.Now().Before(end) {
						if _, ok := l.submit(c); !ok {
							return
						}
						n.Add(1)
					}
				}()
			}
			wg.Wait()
			return nil
		})
		wallS = append(wallS, time.Since(start).Seconds())
		calibrate()
		submits = append(submits, float64(n.Load()))
		spans = append(spans, sp)
	}
	return submits, wallS, spans
}

// histogram reads a histogram's running sum and count from the registry's
// Prometheus rendering.
func histogram(reg *metrics.Registry, name string) (sum float64, count int64) {
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		k, v, _ := strings.Cut(sc.Text(), " ")
		switch k {
		case name + "_sum":
			sum, _ = strconv.ParseFloat(v, 64)
		case name + "_count":
			count, _ = strconv.ParseInt(v, 10, 64)
		}
	}
	return sum, count
}

// finish runs every job to completion, waits for the follower, compares the
// replicas' histories, drains, and checks the drained schedule against a
// batch replay of the accepted jobs.
func (l *load) finish(rep *report) error {
	env := l.env
	p, f := env.primary, env.follower.Scheduler()
	env.clk.Advance(serveDrainAhead)
	if err := p.Sync(); err != nil {
		return err
	}
	deadline := time.Now().Add(30 * time.Second)
	for p.WALGen() != f.WALGen() || p.WALApplied() != f.WALApplied() {
		if time.Now().After(deadline) {
			rep.fail("serve: follower at (gen %d, %d records) never caught up with primary (gen %d, %d records)",
				f.WALGen(), f.WALApplied(), p.WALGen(), p.WALApplied())
			break
		}
		time.Sleep(time.Millisecond)
	}
	// The follower counts a batch's records as they reach its WAL, before
	// it derives their history; a command queued behind the batch returns
	// once the batch is fully applied.
	if err := f.Sync(); err != nil {
		return err
	}
	ph, err := historyDigest(env.pcfg)
	if err != nil {
		return err
	}
	fh, err := historyDigest(env.fcfg)
	if err != nil {
		return err
	}
	if ph != fh {
		rep.fail("serve: follower history %s differs from primary history %s", fh, ph)
	}
	env.follower.Stop()
	if err := env.follower.Err(); err != nil {
		rep.fail("serve: follower stream error: %v", err)
	}
	if _, err := env.follower.Scheduler().Drain(); err != nil {
		rep.fail("serve: follower drain: %v", err)
	}
	env.follower = nil
	st, err := env.close()
	if err != nil {
		return err
	}

	// Accounting: every acked job is recorded, queued, pending or
	// cancelled, exactly once.
	sort.Slice(l.acks, func(a, b int) bool { return l.acks[a].id < l.acks[b].id })
	seen := map[int]int{}
	for _, r := range st.Records {
		seen[r.Job.ID]++
	}
	for _, j := range append(append([]*trace.Job(nil), st.Queued...), st.Pending...) {
		seen[j.ID]++
	}
	for _, id := range st.Canceled {
		seen[id]++
	}
	if len(seen) != len(l.acks) {
		rep.fail("serve: drained state holds %d jobs, %d were acked", len(seen), len(l.acks))
	}
	for _, a := range l.acks {
		if seen[a.id] != 1 {
			rep.fail("serve: acked job %d appears %d times in the drained state", a.id, seen[a.id])
			break
		}
	}

	// The central invariant: live records equal a batch replay of the
	// accepted jobs, byte for byte.
	ref := &trace.Trace{Name: "serve-ha", Procs: env.pcfg.Procs}
	for _, a := range l.acks {
		ref.Jobs = append(ref.Jobs, &trace.Job{ID: a.id, Submit: a.submit, Runtime: a.job.Runtime,
			Request: a.job.Request, Procs: a.job.Procs, Status: 1})
	}
	batch, err := sim.Run(ref, sim.Config{Policy: sched.FCFS{}, Backfiller: backfill.NewConservative(backfill.RequestTime{})})
	if err != nil {
		return err
	}
	if err := checkSchedule(ref.Jobs, st.Records, ref.Procs); err != nil {
		rep.fail("serve: drained schedule invalid: %v", err)
	}
	if live, want := recordDigest(st.Records), recordDigest(batch.Records); live != want {
		rep.fail("serve: live records %s differ from the batch replay %s", live[:12], want[:12])
	}
	fmt.Printf("serve-ha: %d acked submits, %d records, history %s, batch digest %s\n",
		len(l.acks), len(st.Records), ph[:16], recordDigest(batch.Records)[:16])
	return nil
}

// historyDigest hashes a replica's completed-record history log.
func historyDigest(cfg serve.Config) (string, error) {
	res, err := wal.Replay(wal.OSFS{}, cfg.WALPath+".hist")
	if err != nil {
		return "", fmt.Errorf("reading %s history: %w", cfg.Name, err)
	}
	h := sha256.New()
	for _, r := range res.Records {
		fmt.Fprintf(h, "%d:", len(r))
		h.Write(r)
	}
	return fmt.Sprintf("%d:%x", len(res.Records), h.Sum(nil)), nil
}

// phaseResult is what one primary + follower run measured.
type phaseResult struct {
	open          openResult
	sat           []float64 // phase-2 wall-clock submits per second, by slice
	satN          []float64 // phase-2 submits, by slice
	satCPU        []cpuSpan // phase-2 CPU spans, by slice
	clientSubmitS float64   // client-observed submit time, summed
	clientSubmitN int
	roundS        float64 // the daemon's own submit rounds, summed
	roundN        int64
	ackTimeouts   int64
	genS          float64 // stream generation
	memMB         float64 // peak live heap through phase 1
	setup         cpuSpan // stream generation and starting the pair
}

// servePhases runs phase 1 and phase 2 on a fresh pair and checks the
// outcome. observe, when non-nil, runs beside the phases and is stopped
// before the checks.
func servePhases(o options, dir string, rec *recorder, rep *report, observe func(p, f *serve.Scheduler) (stop func())) (phaseResult, error) {
	var res phaseResult
	var env *serveEnv
	var err error
	calibrate()
	res.setup, err = measure(func() (err error) {
		env, err = newServeEnv(o, dir, rec)
		return err
	})
	if err != nil {
		return res, err
	}
	calibrate()
	stop := func() {}
	if observe != nil {
		stop = observe(env.primary, env.follower.Scheduler())
	}
	l := &load{env: env}
	total := time.Duration(o.Seconds * float64(time.Second))
	open := time.Duration(serveOpenShare * float64(total))
	o.Heap.cut()
	res.open = l.openLoop(o, open)
	// Phase 1 is a fixed number of requests, so the heap then live (the
	// daemons' state and the clients' bookkeeping) does not depend on how
	// fast the host is, unlike after the closed loop.
	res.memMB = o.Heap.cut()
	var wallS []float64
	res.satN, wallS, res.satCPU = l.closedLoop(o, total-open)
	for i, n := range res.satN {
		res.sat = append(res.sat, n/wallS[i])
	}
	stop()
	res.genS = env.stream.generated()
	res.roundS, res.roundN = histogram(env.reg, "rlbf_submit_latency_seconds")
	st, err := env.primary.Stats()
	if err != nil {
		return res, err
	}
	res.ackTimeouts = st.ReplAckTimeouts
	if err := l.finish(rep); err != nil {
		return res, err
	}
	res.clientSubmitS, res.clientSubmitN = l.clientSubmitS, l.clientSubmitN
	rep.Attempted += int64(res.open.ops) + int64(l.clientSubmitN-len(res.open.submitLat))
	rep.Failed += int64(len(l.problems))
	for _, p := range l.problems {
		rep.fail("%s", p)
	}
	return res, nil
}

func runServe(o options) (*report, error) {
	rep := newReport()
	if o.Trace {
		return serveTraced(o, rep)
	}
	var setupSpans, satSpans []cpuSpan
	var mems, sats, satN, p50s, submitLat, statusLat, late []float64
	for i := 0; i < serveExtraSetups; i++ {
		so := o
		so.Seed = subSeed(o.Seed, serveSegments+i)
		var env *serveEnv
		calibrate()
		sp, err := measure(func() (err error) {
			env, err = newServeEnv(so, filepath.Join(o.Dir, fmt.Sprintf("setup-%d", i)), nil)
			return err
		})
		if err != nil {
			return nil, err
		}
		setupSpans = append(setupSpans, sp)
		if _, err := env.close(); err != nil {
			return nil, err
		}
	}
	for seg := 0; seg < serveSegments; seg++ {
		so := o
		so.Seed = subSeed(o.Seed, seg)
		so.Seconds = o.Seconds / serveSegments
		res, err := servePhases(so, filepath.Join(o.Dir, fmt.Sprintf("segment-%d", seg)), nil, rep, nil)
		if err != nil {
			return nil, err
		}
		setupSpans = append(setupSpans, res.setup)
		mems = append(mems, res.memMB)
		sats = append(sats, res.sat...)
		satN = append(satN, res.satN...)
		satSpans = append(satSpans, res.satCPU...)
		p50s = append(p50s, res.open.p50s()...)
		submitLat = append(submitLat, res.open.submitLat...)
		statusLat = append(statusLat, res.open.statusLat...)
		late = append(late, res.open.late...)
	}
	calibrate()
	var setups, rates []float64
	for _, sp := range setupSpans {
		setups = append(setups, sp.ref())
	}
	for i, sp := range satSpans {
		rates = append(rates, satN[i]/sp.ref())
	}
	rep.set("setup_s", median(setups), "s", len(setups))
	rep.set("mem_peak_mb", median(mems), "MB", len(mems))
	rep.set("throughput_per_ref_cpu_s", median(rates), "1/s", len(rates))
	fmt.Printf("serve-ha: %d segments; phase 1 at %d requests/s: submit p50 %.4g ms (median of %d seconds), submit p99 %.4g ms (n=%d), status p99 %.4g ms (n=%d), generator late p99 %.4g ms (n=%d); phase 2: wall-clock submits/s %.5g (median of %d seconds)\n",
		serveSegments, serveOpenRate, median(p50s), len(p50s), quantile(submitLat, 0.99), len(submitLat), quantile(statusLat, 0.99), len(statusLat),
		quantile(late, 0.99), len(late), median(sats), len(sats))
	return rep, nil
}

// serveTraced runs the phases untraced and then traced, each for half the
// time on a fresh pair, and splits the client-observed submit time into the
// network, waiting in the daemon, and the daemon's own round.
func serveTraced(o options, rep *report) (*report, error) {
	half := o
	half.Seconds = o.Seconds / 2
	plain, err := servePhases(half, filepath.Join(o.Dir, "plain"), nil, rep, nil)
	if err != nil {
		return nil, err
	}
	rec := o.Spans
	var lagMax int64
	sampleLag := func(p, f *serve.Scheduler) func() {
		stop, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			tick := time.NewTicker(time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
				}
				if p.WALGen() == f.WALGen() {
					lagMax = max(lagMax, p.WALApplied()-f.WALApplied())
				}
			}
		}()
		return func() { close(stop); <-done }
	}
	res, err := servePhases(half, filepath.Join(o.Dir, "traced"), rec, rep, sampleLag)
	if err != nil {
		return nil, err
	}
	setLayers(rep, rec)
	_, httpS, _ := rec.layer("http.submit")
	_, statusS, _ := rec.layer("http.status")
	n := res.clientSubmitN
	rep.set("client.submit.n", float64(n), "count", n)
	rep.set("client.submit.s", res.clientSubmitS, "s", n)
	rep.set("http.submit.s", httpS, "s", n)
	rep.set("net.submit.s", res.clientSubmitS-httpS, "s", n)
	rep.set("serve.round.submit.s", res.roundS, "s", int(res.roundN))
	rep.set("serve.wait.submit.s", httpS-res.roundS, "s", n)
	rep.set("http.status.s", statusS, "s", len(res.open.statusLat))
	rep.set("client.status.p99_ms", quantile(res.open.statusLat, 0.99), "ms", len(res.open.statusLat))
	p50s := plain.open.p50s()
	rep.set("client.submit.p50_ms", median(p50s), "ms", len(p50s))
	rep.set("wall.throughput_per_s", median(plain.sat), "1/s", len(plain.sat))
	rep.set("gen.late_p99_ms", quantile(res.open.late, 0.99), "ms", len(res.open.late))
	rep.set("repl.lag.max", float64(lagMax), "records", 1)
	rep.set("repl.ack_timeouts.n", float64(res.ackTimeouts), "count", 1)
	rep.set("trace.gen.s", res.genS, "s", 1)
	rep.set("trace.overhead_ratio", median(plain.sat)/median(res.sat)-1, "ratio", 1)
	// The phases must nest (round within handler within client) for the
	// split to mean anything; the three parts then sum to the client time.
	if int(res.roundN) != n {
		rep.fail("serve: the daemon timed %d submit rounds, the clients %d submits", res.roundN, n)
	}
	if httpS > res.clientSubmitS || res.roundS > httpS {
		rep.fail("serve: submit phases do not nest: client %.3f s, handler %.3f s, round %.3f s", res.clientSubmitS, httpS, res.roundS)
	}
	return rep, nil
}
