package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backfill"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/wal"
)

// The traced run is built only from decorators on the layers' public
// interfaces, so it measures the code as shipped. Spans stay in memory and
// are written out when the run ends.

// span is one timed call into a layer, in nanoseconds since the recorder
// started.
type span struct {
	Layer string `json:"layer"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

// recorder holds the traced run's spans and counters. It is safe for
// concurrent use.
type recorder struct {
	t0 time.Time

	mu       sync.Mutex
	spans    []span
	byLayer  map[string][]int64 // durations, in ns
	counters map[string]*atomic.Int64
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), byLayer: map[string][]int64{}, counters: map[string]*atomic.Int64{}}
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// end closes a span of layer that began at start.
func (r *recorder) end(layer string, start int64) {
	e := r.now()
	r.mu.Lock()
	r.spans = append(r.spans, span{layer, start, e})
	r.byLayer[layer] = append(r.byLayer[layer], e-start)
	r.mu.Unlock()
}

// counter returns the named counter, creating it on first use.
func (r *recorder) counter(name string) *atomic.Int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = new(atomic.Int64)
		r.counters[name] = c
	}
	return c
}

// layer summarises one layer's spans: count, total seconds and the
// 99th-percentile duration in microseconds.
func (r *recorder) layer(name string) (n int, total float64, p99us float64) {
	r.mu.Lock()
	ds := r.byLayer[name]
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
		total += float64(d) / 1e9
	}
	r.mu.Unlock()
	return len(xs), total, quantile(xs, 0.99) / 1e3
}

func (r *recorder) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedBackfiller times each Backfill call as a span of its layer and counts
// the candidates offered and the jobs started.
type tracedBackfiller struct {
	inner backfill.Backfiller
	rec   *recorder
	layer string
	st    tracedState

	cands, starts, useful *atomic.Int64
}

func newTracedBackfiller(inner backfill.Backfiller, rec *recorder, layer string) *tracedBackfiller {
	return &tracedBackfiller{
		inner: inner, rec: rec, layer: layer,
		cands:  rec.counter(layer + ".cand"),
		starts: rec.counter(layer + ".start"),
		useful: rec.counter(layer + ".useful"),
	}
}

func (b *tracedBackfiller) Name() string { return b.inner.Name() }

func (b *tracedBackfiller) Backfill(st backfill.State, head *trace.Job, queue []*trace.Job) {
	b.st.State, b.st.started = st, 0
	t := b.rec.now()
	b.inner.Backfill(&b.st, head, queue)
	b.rec.end(b.layer+".call", t)
	b.cands.Add(int64(len(queue)))
	b.starts.Add(int64(b.st.started))
	if b.st.started > 0 {
		b.useful.Add(1)
	}
	b.st.State = nil
}

// tracedState counts the jobs a backfiller starts. It forwards the optional
// memory dimension so backfillers see the engine's machine unchanged.
type tracedState struct {
	backfill.State
	started int
}

func (s *tracedState) StartJob(j *trace.Job) {
	s.started++
	s.State.StartJob(j)
}

func (s *tracedState) FreeMem() int { f, _ := backfill.MemOf(s.State); return f }

func (s *tracedState) TotalMem() int { _, t := backfill.MemOf(s.State); return t }

// tracedPolicy counts Score calls and remembers when the last one happened.
type tracedPolicy struct {
	sched.Policy
	rec  *recorder
	n    *atomic.Int64
	last atomic.Int64
}

func newTracedPolicy(p sched.Policy, rec *recorder) *tracedPolicy {
	return &tracedPolicy{Policy: p, rec: rec, n: rec.counter("sched.score")}
}

func (p *tracedPolicy) Score(j *trace.Job, now int64) float64 {
	p.n.Add(1)
	p.last.Store(p.rec.now())
	return p.Policy.Score(j, now)
}

// tracedEstimator counts Estimate calls and remembers when the last one
// happened.
type tracedEstimator struct {
	backfill.Estimator
	rec  *recorder
	n    *atomic.Int64
	last atomic.Int64
}

func newTracedEstimator(e backfill.Estimator, rec *recorder) *tracedEstimator {
	return &tracedEstimator{Estimator: e, rec: rec, n: rec.counter("est")}
}

func (e *tracedEstimator) Estimate(j *trace.Job) int64 {
	e.n.Add(1)
	e.last.Store(e.rec.now())
	return e.Estimator.Estimate(j)
}

// tracedFS counts writes and times fsyncs per durability file kind (cmd:
// the command WAL, hist: the completed-record history, snap: snapshots).
type tracedFS struct {
	wal.FS
	rec  *recorder
	role string // "primary" or "follower"
}

func walKind(name string) string {
	switch base := filepath.Base(name); {
	case strings.HasSuffix(base, ".hist"):
		return "hist"
	case strings.HasSuffix(base, ".wal"):
		return "cmd"
	default:
		return "snap"
	}
}

func (f tracedFS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	fl, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	p := "wal." + f.role + "." + walKind(name)
	return &tracedFile{File: fl, rec: f.rec, fsync: p + ".fsync",
		n: f.rec.counter(p + ".write.n"), bytes: f.rec.counter(p + ".write.bytes")}, nil
}

type tracedFile struct {
	wal.File
	rec      *recorder
	fsync    string
	n, bytes *atomic.Int64
}

func (f *tracedFile) Write(b []byte) (int, error) {
	n, err := f.File.Write(b)
	f.n.Add(1)
	f.bytes.Add(int64(n))
	return n, err
}

func (f *tracedFile) Sync() error {
	t := f.rec.now()
	err := f.File.Sync()
	f.rec.end(f.fsync, t)
	return err
}

// tracedHandler times the primary's HTTP handler per route.
func tracedHandler(h http.Handler, rec *recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		layer := "http.other"
		switch {
		case r.URL.Path == "/v1/jobs" && r.Method == http.MethodPost:
			layer = "http.submit"
		case strings.HasPrefix(r.URL.Path, "/v1/jobs/") && r.Method == http.MethodGet:
			layer = "http.status"
		case strings.HasPrefix(r.URL.Path, "/v1/jobs/") && r.Method == http.MethodDelete:
			layer = "http.cancel"
		case strings.HasPrefix(r.URL.Path, "/replica/"):
			layer = "http.replica"
		}
		t := rec.now()
		h.ServeHTTP(w, r)
		rec.end(layer, t)
	})
}

// tracedTransport times the follower's replication stream polls, from the
// request until the response body is closed, and counts the bytes received.
type tracedTransport struct {
	base http.RoundTripper
	rec  *recorder
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path != "/replica/stream" {
		return t.base.RoundTrip(req)
	}
	start := t.rec.now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.rec.end("repl.poll", start)
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, done: func(n int64) {
		t.rec.end("repl.poll", start)
		t.rec.counter("repl.poll.bytes").Add(n)
	}}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(n int64)
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *countingBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}
