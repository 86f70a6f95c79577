package serveclient

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/backfill"
	"repro/internal/sched"
	"repro/internal/serve"
)

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// newTestDaemon spins a real-clock daemon at high time scale behind an
// httptest server.
func newTestDaemon(t *testing.T, procs int, scale float64) (*serve.Scheduler, *httptest.Server) {
	t.Helper()
	s, err := serve.New(serve.Config{
		Name: "test", Procs: procs,
		Policy:     sched.FCFS{},
		Backfiller: backfill.NewConservative(backfill.RequestTime{}),
		TimeScale:  scale,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(serve.NewServer(s, 64, 0).Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// TestServeLoadgenSmoke runs the load harness end to end against a live
// daemon: non-zero throughput, zero transport errors, sane latency report.
func TestServeLoadgenSmoke(t *testing.T) {
	s, ts := newTestDaemon(t, 256, 50000)
	rep, err := RunLoad(LoadConfig{
		Endpoints:   []string{ts.URL},
		Submitters:  32,
		Duration:    400 * time.Millisecond,
		StatusEvery: 3,
		CancelEvery: 7,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("loadgen transport errors: %d", rep.Errors)
	}
	if rep.Submitted == 0 || rep.Throughput <= 0 {
		t.Fatalf("loadgen made no progress: %+v", rep)
	}
	if rep.SubmitP99Ms <= 0 || rep.SubmitP99Ms < rep.SubmitP50Ms {
		t.Fatalf("implausible latency report: %+v", rep)
	}
	if rep.Server == nil || rep.Server.Accepted != rep.Submitted {
		t.Fatalf("server accounting mismatch: client %d, server %+v", rep.Submitted, rep.Server)
	}
	st, err := s.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if got := int64(len(st.Records) + len(st.Queued) + len(st.Pending) + len(st.Canceled)); got != rep.Submitted {
		t.Fatalf("drained state accounts for %d jobs, client submitted %d", got, rep.Submitted)
	}
}

// TestServeLoadgenRetries pins the client-side robustness satellite: 5xx
// responses are retried with backoff under stable idempotency keys, so a
// flaky front end costs retries, not errors or duplicates.
func TestServeLoadgenRetries(t *testing.T) {
	var mu sync.Mutex
	attempts := map[string]int{}
	var ids atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/jobs" || r.Method != http.MethodPost {
			http.NotFound(w, r)
			return
		}
		key := r.Header.Get("Idempotency-Key")
		if key == "" {
			t.Error("submission without an idempotency key")
		}
		mu.Lock()
		attempts[key]++
		n := attempts[key]
		mu.Unlock()
		if n > 2 {
			t.Errorf("key %s attempted %d times; one failure should cost one retry", key, n)
		}
		if n == 1 {
			// First attempt of every logical submission fails.
			writeJSON(w, http.StatusInternalServerError, map[string]string{"error": "transient"})
			return
		}
		writeJSON(w, http.StatusAccepted, serve.SubmitResult{ID: int(ids.Add(1)), PredictedStart: -1})
	})
	ts := httptest.NewServer(h)
	defer ts.Close()

	rep, err := RunLoad(LoadConfig{
		Endpoints:  []string{ts.URL},
		Submitters: 4,
		Duration:   300 * time.Millisecond,
		Retries:    3,
		Seed:       7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("errors %d with retries enabled, want 0", rep.Errors)
	}
	if rep.Submitted == 0 {
		t.Fatalf("no submissions made it through: %+v", rep)
	}
	if rep.Retries < rep.Submitted {
		t.Fatalf("retries %d < submitted %d; every submission needed one retry", rep.Retries, rep.Submitted)
	}
	// rep.Rejected is deliberately unchecked: submissions issued near the run
	// deadline fail their first attempt and cannot retry without sleeping
	// past the deadline, so the client correctly gives up on them and the
	// tail of the run accumulates rejections. The handler-side attempt
	// counter above is the real retry-discipline assertion.
}

// TestClientFailoverConverges pins the multi-endpoint contract: a client
// whose preferred endpoint answers follower-503 with a leader hint converges
// onto the primary within one retry, and a fenced 409 rotates too.
func TestClientFailoverConverges(t *testing.T) {
	var ids atomic.Int64
	var primaryURL atomic.Value
	primary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusAccepted, serve.SubmitResult{ID: int(ids.Add(1)), PredictedStart: -1})
	}))
	defer primary.Close()
	primaryURL.Store(primary.URL)
	var followerHits atomic.Int64
	follower := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		followerHits.Add(1)
		w.Header().Set("Retry-After", "1")
		w.Header().Set("X-Rlbf-Leader", primaryURL.Load().(string))
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "replica is a follower"})
	}))
	defer follower.Close()

	cl := New([]string{follower.URL, primary.URL}, nil)
	noSleep := func(time.Duration) time.Duration { return time.Nanosecond }
	for i := 0; i < 5; i++ {
		res, _, err := cl.Submit(serve.JobRequest{Procs: 1, Runtime: 10, IdemKey: "k"}, 3, time.Time{}, noSleep)
		if err != nil || res.Code != http.StatusAccepted {
			t.Fatalf("submit %d: code %d err %v", i, res.Code, err)
		}
	}
	if cl.Endpoint() != primary.URL {
		t.Fatalf("client did not converge on the leader: preferred %s", cl.Endpoint())
	}
	// The first submit hits the follower once and adopts the hint; later
	// submissions go straight to the primary.
	if h := followerHits.Load(); h != 1 {
		t.Fatalf("follower was hit %d times, want exactly 1 (leader hint should stick)", h)
	}

	// Fenced 409 from the adopted endpoint rotates away and retries land.
	fenced := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusConflict, map[string]string{"error": "fenced"})
	}))
	defer fenced.Close()
	cl2 := New([]string{fenced.URL, primary.URL}, nil)
	res, retries, err := cl2.Submit(serve.JobRequest{Procs: 1, Runtime: 10, IdemKey: "k2"}, 2, time.Time{}, noSleep)
	if err != nil || res.Code != http.StatusAccepted {
		t.Fatalf("submit via fenced endpoint: code %d retries %d err %v", res.Code, retries, err)
	}
}

// TestClientCancelAlreadyStarted pins that a 409 about the job itself
// ({"canceled":false}: it already started or finished) is an answer, not a
// failover: Cancel reports (false, nil) and keeps the preferred endpoint. A
// fenced 409 ({"error":...}) still rotates away and reports an error.
func TestClientCancelAlreadyStarted(t *testing.T) {
	var otherHits atomic.Int64
	other := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		otherHits.Add(1)
		writeJSON(w, http.StatusOK, map[string]any{"id": 7, "canceled": true})
	}))
	defer other.Close()
	started := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodDelete {
			http.NotFound(w, r)
			return
		}
		writeJSON(w, http.StatusConflict, map[string]any{"id": 7, "canceled": false})
	}))
	defer started.Close()

	cl := New([]string{started.URL, other.URL}, nil)
	for i := 0; i < 3; i++ {
		ok, err := cl.Cancel(7)
		if ok || err != nil {
			t.Fatalf("cancel of a started job: (%v, %v), want (false, nil)", ok, err)
		}
		if cl.Endpoint() != started.URL {
			t.Fatalf("an already-started reply moved the client to %s", cl.Endpoint())
		}
	}
	if n := otherHits.Load(); n != 0 {
		t.Fatalf("the other endpoint was hit %d times, want 0", n)
	}

	fenced := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusConflict, map[string]string{"error": "fenced"})
	}))
	defer fenced.Close()
	cl2 := New([]string{fenced.URL, other.URL}, nil)
	if ok, err := cl2.Cancel(7); ok || err == nil {
		t.Fatalf("cancel via a fenced endpoint: (%v, %v), want an error", ok, err)
	}
	if cl2.Endpoint() != other.URL {
		t.Fatalf("a fenced 409 did not rotate: preferred %s", cl2.Endpoint())
	}
	if ok, err := cl2.Cancel(7); !ok || err != nil {
		t.Fatalf("cancel after rotating: (%v, %v), want (true, nil)", ok, err)
	}
}
