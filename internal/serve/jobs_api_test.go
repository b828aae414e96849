package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"valuepred/internal/jobs"
	"valuepred/internal/stats"
)

// post sends a POST and returns the status, headers and body.
func post(t *testing.T, ts *httptest.Server, path, body string) (int, http.Header, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: reading body: %v", path, err)
	}
	return resp.StatusCode, resp.Header, string(b)
}

// decodeJob unmarshals a job status reply.
func decodeJob(t *testing.T, body string) jobReply {
	t.Helper()
	var rep jobReply
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("job reply is not JSON: %v\n%s", err, body)
	}
	return rep
}

// waitState polls a job until it reaches want or the deadline passes.
func waitState(t *testing.T, ts *httptest.Server, id, want string) jobReply {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		status, _, body := get(t, ts, "/v1/jobs/"+id)
		if status != http.StatusOK {
			t.Fatalf("poll %s: status %d, body %s", id, status, body)
		}
		rep := decodeJob(t, body)
		if string(rep.State) == want {
			return rep
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached %s; last body: %s", id, want, body)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestJobsAPILifecycle drives the async surface end to end: submit (202),
// idempotent resubmit (200, same id), premature result fetch (409), poll
// to done, fetch the result byte-identically to the synchronous endpoint.
func TestJobsAPILifecycle(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{})
	inner := s.run
	s.run = func(ctx context.Context, id string, rr runRequest) (*stats.Table, error) {
		close(started)
		<-release
		return inner(ctx, id, rr)
	}

	const submit = "/v1/jobs?experiment=fig5.1&tracelen=3000&workloads=gcc"
	status, hdr, body := post(t, ts, submit, "")
	if status != http.StatusAccepted {
		t.Fatalf("submit: status = %d, want 202; body: %s", status, body)
	}
	job := decodeJob(t, body)
	if job.ID == "" || job.Experiment != "fig5.1" {
		t.Fatalf("submit reply: %+v", job)
	}
	if loc := hdr.Get("Location"); loc != "/v1/jobs/"+job.ID {
		t.Errorf("Location = %q, want /v1/jobs/%s", loc, job.ID)
	}
	<-started

	// Resubmitting the identical request finds the same job: 200, same id.
	status, _, body = post(t, ts, submit, "")
	if status != http.StatusOK || decodeJob(t, body).ID != job.ID {
		t.Errorf("resubmit: status = %d, body = %s (want 200 with id %s)", status, body, job.ID)
	}
	// Equivalent-but-spelled-differently parameters map to the same job id.
	status, _, body = post(t, ts, submit+"&seed=1&seeds=1&format=csv", "")
	if status != http.StatusOK || decodeJob(t, body).ID != job.ID {
		t.Errorf("equivalent resubmit: status = %d, body = %s", status, body)
	}

	// The result is not ready while the job runs: 409, not 404 or 500.
	status, _, body = get(t, ts, "/v1/jobs/"+job.ID+"/result")
	if status != http.StatusConflict || errorCode(t, body) != "not_ready" {
		t.Errorf("premature fetch: status = %d, body = %s", status, body)
	}
	// The job shows up in the listing.
	status, _, body = get(t, ts, "/v1/jobs")
	if status != http.StatusOK || !strings.Contains(body, job.ID) {
		t.Errorf("job list: status = %d, body = %s", status, body)
	}

	close(release)
	done := waitState(t, ts, job.ID, "done")
	if done.Result != "/v1/jobs/"+job.ID+"/result" {
		t.Errorf("done reply result = %q", done.Result)
	}

	status, _, asyncBody := get(t, ts, done.Result)
	if status != http.StatusOK {
		t.Fatalf("result fetch: status = %d, body: %s", status, asyncBody)
	}
	// The synchronous endpoint serves the same bytes (now a cache hit).
	status, hdr, syncBody := get(t, ts, "/v1/experiments/fig5.1?tracelen=3000&workloads=gcc")
	if status != http.StatusOK || hdr.Get("X-Cache") != "hit" {
		t.Fatalf("sync fetch after job: status = %d, X-Cache = %q", status, hdr.Get("X-Cache"))
	}
	if asyncBody != syncBody {
		t.Errorf("async result differs from the synchronous rendering:\nasync:\n%s\nsync:\n%s", asyncBody, syncBody)
	}
	if got := counter(s, "serve.simulations"); got != 1 {
		t.Errorf("simulations = %d, want 1 (the job; the sync fetch must hit the cache)", got)
	}
	if got := counter(s, "serve.jobs.completed"); got != 1 {
		t.Errorf("jobs.completed = %d, want 1", got)
	}
}

// TestJobsAPIErrors covers the error surface of the async endpoints.
func TestJobsAPIErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		method, path string
		status       int
		code         string
	}{
		{"POST", "/v1/jobs", http.StatusBadRequest, "bad_params"},
		{"POST", "/v1/jobs?experiment=nonesuch", http.StatusNotFound, "unknown_experiment"},
		{"POST", "/v1/jobs?experiment=fig5.1&tracelen=0", http.StatusBadRequest, "bad_params"},
		{"POST", "/v1/jobs?experiment=fig5.1&format=shard", http.StatusBadRequest, "bad_params"},
		{"GET", "/v1/jobs/jnope", http.StatusNotFound, "unknown_job"},
		{"GET", "/v1/jobs/jnope/result", http.StatusNotFound, "unknown_job"},
	}
	for _, c := range cases {
		var status int
		var body string
		if c.method == "POST" {
			status, _, body = post(t, ts, c.path, "")
		} else {
			status, _, body = get(t, ts, c.path)
		}
		if status != c.status || errorCode(t, body) != c.code {
			t.Errorf("%s %s: status = %d, body = %s (want %d %s)",
				c.method, c.path, status, body, c.status, c.code)
		}
	}
}

// TestJobSurvivesClientDisconnect is the acceptance check for the async
// architecture: the client that started a simulation disconnects mid-run,
// the job finishes on the server's context anyway, and the result is
// fetchable afterwards — by job id and as a cache hit — without any
// re-simulation.
func TestJobSurvivesClientDisconnect(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{})
	inner := s.run
	s.run = func(ctx context.Context, id string, rr runRequest) (*stats.Table, error) {
		close(started)
		<-release
		return inner(ctx, id, rr)
	}

	// A synchronous client starts the run, then hangs up mid-simulation.
	reqCtx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(reqCtx, "GET", ts.URL+"/v1/experiments/table3.1"+tinyQuery, nil)
	if err != nil {
		t.Fatal(err)
	}
	clientGone := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		clientGone <- err
	}()
	<-started
	cancel()
	if err := <-clientGone; err == nil {
		t.Fatal("the disconnecting client's request unexpectedly succeeded")
	}

	// The simulation must still be running (not canceled with the client).
	close(release)
	deadline := time.Now().Add(10 * time.Second)
	for counter(s, "serve.jobs.completed") < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("job never completed after its client disconnected (failed = %d)",
				counter(s, "serve.jobs.failed"))
		}
		time.Sleep(2 * time.Millisecond)
	}

	// The orphaned result is fetchable by job id...
	list := s.jobs.List()
	if len(list) != 1 {
		t.Fatalf("tracked jobs = %d, want 1", len(list))
	}
	status, _, body := get(t, ts, "/v1/jobs/"+list[0].ID+"/result")
	if status != http.StatusOK || !strings.Contains(body, "Table 3.1") {
		t.Errorf("orphaned result fetch: status = %d, body = %s", status, body)
	}
	// ...and the synchronous endpoint serves it from cache, no re-run.
	status, hdr, _ := get(t, ts, "/v1/experiments/table3.1"+tinyQuery)
	if status != http.StatusOK || hdr.Get("X-Cache") != "hit" {
		t.Errorf("post-disconnect fetch: status = %d, X-Cache = %q", status, hdr.Get("X-Cache"))
	}
	if got := counter(s, "serve.simulations"); got != 1 {
		t.Errorf("simulations = %d, want 1", got)
	}
}

// TestJobQueueAndShedding pins the async admission ladder with one slot
// and a one-deep queue: first job runs, second queues (202, FIFO), third
// is shed with 429 queue_full; releasing the slot drains the queue.
func TestJobQueueAndShedding(t *testing.T) {
	release := make(chan struct{})
	var entered atomic.Int32
	s, ts := newTestServer(t, Config{MaxConcurrent: 1, JobQueue: 1})
	inner := s.run
	s.run = func(ctx context.Context, id string, rr runRequest) (*stats.Table, error) {
		entered.Add(1)
		<-release
		return inner(ctx, id, rr)
	}

	submit := func(id string) (int, jobReply, string) {
		status, _, body := post(t, ts, "/v1/jobs?experiment="+id+"&tracelen=3000&workloads=gcc", "")
		if status == http.StatusAccepted || status == http.StatusOK {
			return status, decodeJob(t, body), body
		}
		return status, jobReply{}, body
	}

	status, a, body := submit("fig5.1")
	if status != http.StatusAccepted || a.State != "running" {
		t.Fatalf("first submit: status = %d, body = %s", status, body)
	}
	deadline := time.Now().Add(10 * time.Second)
	for entered.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}

	status, b, body := submit("fig3.3")
	if status != http.StatusAccepted || b.State != "queued" {
		t.Fatalf("second submit: status = %d, body = %s (want 202 queued)", status, body)
	}
	status, _, body = post(t, ts, "/v1/jobs?experiment=table3.1&tracelen=3000&workloads=gcc", "")
	if status != http.StatusTooManyRequests || errorCode(t, body) != "queue_full" {
		t.Errorf("third submit: status = %d, body = %s (want 429 queue_full)", status, body)
	}
	// The synchronous path never queues: it sheds immediately at saturation.
	status, _, body = get(t, ts, "/v1/experiments/table3.1"+tinyQuery)
	if status != http.StatusTooManyRequests || errorCode(t, body) != "saturated" {
		t.Errorf("sync at saturation: status = %d, body = %s (want 429 saturated)", status, body)
	}

	close(release)
	waitState(t, ts, a.ID, "done")
	waitState(t, ts, b.ID, "done")
	if got := counter(s, "serve.jobs.queued"); got != 1 {
		t.Errorf("jobs.queued = %d, want 1", got)
	}
	if got := counter(s, "serve.jobs.completed"); got != 2 {
		t.Errorf("jobs.completed = %d, want 2", got)
	}
	if got := counter(s, "serve.rejected"); got != 2 {
		t.Errorf("rejected = %d, want 2 (one queue_full, one saturated)", got)
	}
}

// TestFailedJobRetriesOnResubmit pins the retry semantics: a job that
// settles failed is reported once, and resubmitting the same parameters
// drops the corpse and runs fresh.
func TestFailedJobRetriesOnResubmit(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	inner := s.run
	var calls atomic.Int32
	s.run = func(ctx context.Context, id string, rr runRequest) (*stats.Table, error) {
		if calls.Add(1) == 1 {
			panic("first run dies")
		}
		return inner(ctx, id, rr)
	}

	status, _, body := post(t, ts, "/v1/jobs?experiment=fig5.1&tracelen=3000&workloads=gcc", "")
	if status != http.StatusAccepted {
		t.Fatalf("submit: status = %d, body = %s", status, body)
	}
	id := decodeJob(t, body).ID
	failed := waitState(t, ts, id, "failed")
	if failed.Error == "" {
		t.Errorf("failed job reply carries no error: %+v", failed)
	}
	// Fetching a failed job's result returns its structured error.
	status, _, body = get(t, ts, "/v1/jobs/"+id+"/result")
	if status != http.StatusInternalServerError || errorCode(t, body) != "panic" {
		t.Errorf("failed result fetch: status = %d, body = %s", status, body)
	}

	// Resubmission retries; the job id is the same (same key), fresh run.
	status, _, body = post(t, ts, "/v1/jobs?experiment=fig5.1&tracelen=3000&workloads=gcc", "")
	if status != http.StatusAccepted || decodeJob(t, body).ID != id {
		t.Fatalf("resubmit after failure: status = %d, body = %s", status, body)
	}
	waitState(t, ts, id, "done")
	if got := counter(s, "serve.jobs.failed"); got != 1 {
		t.Errorf("jobs.failed = %d, want 1", got)
	}
}

// TestQueuedJobNeverStranded pins that a queued job always starts: with
// one slot, job B is submitted while job A finishes. When B queues just
// as A, finding the queue empty, releases its slot, B must still start
// without waiting for a next admission, which in this test never comes.
func TestQueuedJobNeverStranded(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxConcurrent: 1})
	release := make(chan struct{}, 1)
	s.run = func(ctx context.Context, id string, rr runRequest) (*stats.Table, error) {
		if rr.Seed%2 == 0 {
			<-release // job A of the round: finish only when told
		}
		return &stats.Table{}, nil
	}
	// In process rather than over a socket: the window is a few hundred
	// nanoseconds wide, and the socket round trip would skip past it.
	h := s.Handler()
	submit := func(seed int) string {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", fmt.Sprintf("/v1/jobs?experiment=fig5.1&tracelen=3000&workloads=gcc&seed=%d", seed), nil))
		if rec.Code != http.StatusAccepted {
			t.Fatalf("submit seed %d: status = %d, body = %s", seed, rec.Code, rec.Body)
		}
		return decodeJob(t, rec.Body.String()).ID
	}
	settled := func(id string) bool {
		j, ok := s.jobs.Get(id)
		return !ok || j.State() == jobs.StateDone
	}
	for round := 0; round < 2000; round++ {
		a := submit(2 * round)
		release <- struct{}{}
		b := submit(2*round + 1)
		deadline := time.Now().Add(5 * time.Second)
		for !settled(a) || !settled(b) {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: a job never ran (queue depth %d)", round, s.jobs.QueueLen())
			}
			time.Sleep(10 * time.Microsecond)
		}
	}
}
