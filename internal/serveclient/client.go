// Package serveclient is the client side of the rlbf-serve HTTP API: a
// failover-aware submitter that spreads requests over every known replica
// endpoint, plus the load generator built on it.
//
// Failover policy: the client remembers the last endpoint that accepted a
// write and keeps using it. A connection failure, a 503 (follower or
// draining) or a fenced 409 (an {"error":...} body, unlike the
// {"canceled":false} 409 a cancel of a started job gets) rotates to the next
// endpoint; a 503 carrying an X-Rlbf-Leader header jumps straight to the
// advertised leader when it is one of the configured endpoints. Retry-After is honored as a
// backoff floor. Every submission should carry an idempotency key, so a
// retry that lands on the new primary after the old one crashed
// mid-acknowledgement deduplicates instead of double-enqueueing.
package serveclient

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// Client is a multi-endpoint rlbf-serve API client. Safe for concurrent use.
type Client struct {
	endpoints []string
	hc        *http.Client
	preferred atomic.Int32
}

// New returns a client over the given base URLs (e.g. http://host:port).
// hc nil means http.DefaultClient.
func New(endpoints []string, hc *http.Client) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{endpoints: append([]string(nil), endpoints...), hc: hc}
}

// Endpoint returns the currently preferred endpoint.
func (c *Client) Endpoint() string { return c.endpoints[c.preferred.Load()] }

// rotate moves preference off a failed endpoint (CAS so concurrent failures
// advance once, not once per goroutine).
func (c *Client) rotate(from int32) {
	c.preferred.CompareAndSwap(from, (from+1)%int32(len(c.endpoints)))
}

// adopt jumps preference to the advertised leader, if configured.
func (c *Client) adopt(leader string) bool {
	for i, e := range c.endpoints {
		if e == leader {
			c.preferred.Store(int32(i))
			return true
		}
	}
	return false
}

// Result is the outcome of one HTTP attempt, before retry classification.
type Result struct {
	// Code is the HTTP status (0 on transport error).
	Code int
	// RetryAfter is the server-provided backoff floor, if any.
	RetryAfter time.Duration
	// Submit holds the decoded acknowledgement on 202.
	Submit *serve.SubmitResult
}

// failover reports whether an attempt outcome should move to another
// endpoint: transport failure, follower/draining (503), or fenced (409).
func failover(code int, err error) bool {
	return err != nil || code == http.StatusServiceUnavailable || code == http.StatusConflict
}

// SubmitOnce posts one submission to the preferred endpoint, following a
// leader hint or rotating on a failover-worthy outcome so the next attempt
// lands elsewhere. The caller owns retry pacing.
func (c *Client) SubmitOnce(req serve.JobRequest) (Result, error) {
	cur := c.preferred.Load()
	res, err := c.post(c.endpoints[cur], req)
	if failover(res.Code, err) {
		if res.leader == "" || !c.adopt(res.leader) {
			c.rotate(cur)
		}
	}
	return res.Result, err
}

// Submit posts one logical submission, retrying transport failures, 429 load
// shedding, 5xx and fenced 409s with jittered exponential backoff (10ms
// doubling to 1s, Retry-After honored as a floor) until the attempt budget or
// deadline runs out. jitter is called with the current backoff and returns
// the sleep to take; nil gets the default full-jitter policy seeded from the
// clock-free fallback (deterministic callers pass their own RNG).
func (c *Client) Submit(req serve.JobRequest, retries int, deadline time.Time, jitter func(time.Duration) time.Duration) (Result, int64, error) {
	if jitter == nil {
		jitter = func(d time.Duration) time.Duration { return d }
	}
	var nRetries int64
	backoff := 10 * time.Millisecond
	for {
		res, err := c.SubmitOnce(req)
		retryable := err != nil || res.Code == http.StatusTooManyRequests ||
			res.Code == http.StatusConflict || res.Code >= 500
		if !retryable || nRetries >= int64(retries) {
			return res, nRetries, err
		}
		d := jitter(backoff)
		if res.RetryAfter > d {
			d = res.RetryAfter
		}
		if !deadline.IsZero() && time.Now().Add(d).After(deadline) {
			return res, nRetries, err
		}
		time.Sleep(d)
		if backoff < time.Second {
			backoff *= 2
		}
		nRetries++
	}
}

type postResult struct {
	Result
	leader string
}

func (c *Client) post(base string, req serve.JobRequest) (postResult, error) {
	body, _ := json.Marshal(req)
	hreq, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return postResult{}, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if req.IdemKey != "" {
		hreq.Header.Set("Idempotency-Key", req.IdemKey)
	}
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return postResult{}, err
	}
	defer drainClose(resp)
	out := postResult{
		Result: Result{Code: resp.StatusCode},
		leader: resp.Header.Get("X-Rlbf-Leader"),
	}
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil && secs > 0 {
			out.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	if resp.StatusCode != http.StatusAccepted {
		return out, nil
	}
	var sr serve.SubmitResult
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return out, err
	}
	out.Submit = &sr
	return out, nil
}

// Status fetches a job's status from the preferred endpoint (any replica can
// answer reads; a transport failure rotates).
func (c *Client) Status(id int) (*serve.JobStatus, error) {
	cur := c.preferred.Load()
	resp, err := c.hc.Get(fmt.Sprintf("%s/v1/jobs/%d", c.endpoints[cur], id))
	if err != nil {
		c.rotate(cur)
		return nil, err
	}
	defer drainClose(resp)
	var st serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Cancel cancels a job via the preferred endpoint, rotating on failover
// outcomes like SubmitOnce. It reports whether the daemon canceled the job.
// A reply about the job itself ({"canceled":false} with 409: it already
// started or finished) is an answer, not a failover.
func (c *Client) Cancel(id int) (bool, error) {
	cur := c.preferred.Load()
	req, err := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/jobs/%d", c.endpoints[cur], id), nil)
	if err != nil {
		return false, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		c.rotate(cur)
		return false, err
	}
	defer drainClose(resp)
	var body struct {
		Canceled *bool `json:"canceled"`
	}
	if json.NewDecoder(resp.Body).Decode(&body) == nil && body.Canceled != nil {
		return *body.Canceled, nil
	}
	if failover(resp.StatusCode, nil) {
		if leader := resp.Header.Get("X-Rlbf-Leader"); leader == "" || !c.adopt(leader) {
			c.rotate(cur)
		}
		return false, fmt.Errorf("serveclient: cancel: %s", resp.Status)
	}
	return resp.StatusCode == http.StatusOK, nil
}

// Statz fetches the daemon accounting from the preferred endpoint.
func (c *Client) Statz() (*serve.Stats, error) {
	resp, err := c.hc.Get(c.Endpoint() + "/statz")
	if err != nil {
		return nil, err
	}
	defer drainClose(resp)
	var st serve.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

func drainClose(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}
