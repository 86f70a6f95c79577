package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// checkSchedule verifies that records are a valid schedule of jobs on a
// machine of procs processors: every job starts exactly once, never before
// its submit time, runs for its runtime clamped to its request, and the
// running jobs never need more processors than the machine has.
func checkSchedule(jobs []*trace.Job, recs []metrics.Record, procs int) error {
	if len(recs) != len(jobs) {
		return fmt.Errorf("%d records for %d jobs", len(recs), len(jobs))
	}
	want := make(map[int]*trace.Job, len(jobs))
	for _, j := range jobs {
		want[j.ID] = j
	}
	type edge struct {
		t     int64
		procs int
	}
	edges := make([]edge, 0, 2*len(recs))
	for _, r := range recs {
		j, ok := want[r.Job.ID]
		if !ok {
			return fmt.Errorf("job %d started twice or was never submitted", r.Job.ID)
		}
		delete(want, r.Job.ID)
		if r.Start < j.Submit {
			return fmt.Errorf("job %d starts at %d before its submit time %d", j.ID, r.Start, j.Submit)
		}
		run := j.Runtime
		if j.Request > 0 && run > j.Request {
			run = j.Request
		}
		if r.End-r.Start != run {
			return fmt.Errorf("job %d runs %d s, want %d", j.ID, r.End-r.Start, run)
		}
		edges = append(edges, edge{r.Start, j.Procs}, edge{r.End, -j.Procs})
	}
	// Releases sort before allocations at the same instant.
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].t != edges[b].t {
			return edges[a].t < edges[b].t
		}
		return edges[a].procs < edges[b].procs
	})
	busy := 0
	for _, e := range edges {
		if busy += e.procs; busy > procs {
			return fmt.Errorf("%d processors busy at t=%d on a %d-processor machine", busy, e.t, procs)
		}
	}
	return nil
}

// recordDigest hashes a schedule in record order (job, submit, width, start,
// end), so two runs agree on it only if they are byte-identical.
func recordDigest(recs []metrics.Record) string {
	h := sha256.New()
	var b [40]byte
	for _, r := range recs {
		binary.LittleEndian.PutUint64(b[0:], uint64(r.Job.ID))
		binary.LittleEndian.PutUint64(b[8:], uint64(r.Job.Submit))
		binary.LittleEndian.PutUint64(b[16:], uint64(r.Job.Procs))
		binary.LittleEndian.PutUint64(b[24:], uint64(r.Start))
		binary.LittleEndian.PutUint64(b[32:], uint64(r.End))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// combine folds per-window digests into one printable digest.
func combine(ds []string) string {
	h := sha256.Sum256([]byte(strings.Join(ds, ",")))
	return hex.EncodeToString(h[:8])
}
