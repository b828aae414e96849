// Package serve is the HTTP experiment service behind cmd/vpserve: it
// exposes the experiment registry over a small versioned API and turns the
// one-shot CLI pipeline into a long-lived process that can serve many
// clients from one warm trace store.
//
// The paper's lesson — exploit redundancy instead of recomputing — is
// applied at the request level:
//
//   - every distinct simulation is one job, identified by the job id
//     derived from the canonicalized run parameters; identical concurrent
//     requests coalesce onto the same job, and the asynchronous API
//     (POST /v1/jobs, GET /v1/jobs/{id}) exposes the same jobs to clients
//     that would rather poll than hold a connection open;
//   - done results live in one store keyed by job id: a bounded memory
//     tier over — when a cache directory is configured — a persistent
//     disk tier that survives restarts and can be shared between
//     replicas. Every endpoint resolves a job the same way: the store
//     (memory, then disk), then a queued or running job, then a new job;
//     the synchronous GET is that lookup plus a wait;
//   - load beyond a configurable number of concurrent simulations is
//     shed with 429 + Retry-After on the synchronous path, while async
//     submissions may wait in a bounded FIFO;
//   - every simulation runs under a context with a configurable timeout
//     and is aborted cooperatively through experiment.RunCtx's checkpoints.
//
// A replica started with a shard assignment (vpserve -shard n/m) serves
// its deterministic partition of the workload axis: normal formats render
// the partial table, and format=shard returns the mergeable artifact that
// vpsim -merge or POST /v1/merge recombines byte-identically to the
// unsharded run (DESIGN.md §14).
//
// Parallelism is bounded at two independent levels: MaxConcurrent admits
// jobs, and every admitted experiment then executes its cells on the
// process-global internal/plan worker pool (sized by valuepred.SetWorkers
// / vpserve's -workers flag), so total simulation concurrency is capped by
// the pool width rather than requests × workloads.
//
// Served tables are byte-identical to cmd/vpsim's output for the same
// parameters (pinned by TestServedTableMatchesVpsimRendering): the service
// renders through the same stats.Table methods, and the determinism
// contract (DESIGN.md §9) guarantees the table itself.
//
// Observability rides on internal/obs: every request increments
// serve.requests, coalesced followers serve.coalesced, cache outcomes
// serve.cache_hit / serve.cache_miss / serve.disk_cache_*, the job
// lifecycle serve.jobs.*, and request latency lands in the
// serve.latency_ms histogram; GET /v1/metrics renders the registry
// snapshot. The serve package sits outside the simulation packages, so —
// unlike them — it may read the wall clock and the recorded metrics back.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"valuepred/internal/experiment"
	"valuepred/internal/jobs"
	"valuepred/internal/obs"
	"valuepred/internal/plan"
	"valuepred/internal/stats"
	"valuepred/internal/tracestore"
	"valuepred/internal/workload"
)

// Defaults for the zero Config.
const (
	// DefaultMaxConcurrent bounds simultaneous simulations (not requests:
	// cache hits and coalesced followers never take a slot).
	DefaultMaxConcurrent = 4
	// DefaultTimeout caps one simulation, including trace generation.
	DefaultTimeout = 2 * time.Minute
	// DefaultCacheEntries bounds the result store's memory tier.
	DefaultCacheEntries = 64
	// DefaultMaxTraceLen rejects absurd per-request trace lengths before
	// they reach an emulator.
	DefaultMaxTraceLen = 2_000_000
	// DefaultMaxSeeds bounds the multi-seed averaging a single request may
	// ask for.
	DefaultMaxSeeds = 16
)

// Config parameterises a Server. The zero value serves with the defaults
// above, the process-wide trace store, and a fresh metrics registry.
type Config struct {
	// MaxConcurrent is the simulation semaphore width; <= 0 means
	// DefaultMaxConcurrent. Synchronous requests that would exceed it
	// receive 429 Too Many Requests with a Retry-After header; async
	// submissions queue up to JobQueue deep.
	MaxConcurrent int
	// Timeout caps one simulation run; <= 0 means DefaultTimeout. An
	// expired run returns 504 Gateway Timeout.
	Timeout time.Duration
	// CacheEntries bounds the memory tier of the result store (completed
	// tables and shard artifacts, least-recently-used evicted first); <= 0
	// means DefaultCacheEntries.
	CacheEntries int
	// MaxTraceLen rejects requests asking for longer traces; <= 0 means
	// DefaultMaxTraceLen.
	MaxTraceLen int
	// MaxSeeds rejects requests averaging over more seeds; <= 0 means
	// DefaultMaxSeeds.
	MaxSeeds int
	// CacheDir, when non-empty, enables the result store's disk tier:
	// completed tables are written there as identity-stamped JSON entries
	// and served back — after memory eviction, across restarts, and
	// between replicas sharing the directory — without re-simulation. The
	// directory is created if needed; an unwritable directory fails New.
	CacheDir string
	// DiskCacheEntries bounds the on-disk cache; <= 0 means
	// DefaultDiskCacheEntries. Eviction is oldest-written-first.
	DiskCacheEntries int
	// JobQueue bounds async submissions waiting for a simulation slot;
	// <= 0 means jobs.DefaultQueueLimit. Beyond it POST /v1/jobs sheds
	// with 429.
	JobQueue int
	// Shard, when enabled, restricts this replica to its deterministic
	// partition of the workload axis (DESIGN.md §14): normal formats
	// render the partial table, format=shard the mergeable artifact. The
	// zero value serves unsharded.
	Shard plan.Shard
	// Store overrides the trace cache consulted by the simulations
	// (nil = tracestore.Shared()). Mainly for tests needing fresh counters.
	Store *tracestore.Store
	// Registry receives the serve.* metrics and the simulators'
	// instrumentation (nil = a fresh registry). Exposed at /v1/metrics.
	Registry *obs.Registry
	// EventLog, when non-nil, receives the structured event stream:
	// request.start/done from the middleware, simulation.start/done per
	// job, and cell.start/done from the plan runner — every line
	// span-stamped so one request's work is grep-able end to end.
	EventLog *obs.EventLog
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: profiling endpoints are a diagnostic surface, not part of
	// the public API (vpserve's -pprof flag turns them on).
	EnablePprof bool
}

// apiError is a structured error reply; the wire form is
//
//	{"error": {"code": "bad_params", "message": "..."}}
type apiError struct {
	status     int
	Code       string `json:"code"`
	Message    string `json:"message"`
	retryAfter int    // seconds; > 0 adds a Retry-After header
}

// Error makes apiError usable as an error inside the handler plumbing.
func (e *apiError) Error() string { return e.Code + ": " + e.Message }

// errSaturated is returned when a synchronous request finds every
// simulation slot busy.
var errSaturated = errors.New("serve: all simulation slots are busy")

// errQueueFull is returned when an async submission finds the job queue
// at its limit.
var errQueueFull = errors.New("serve: the job queue is full")

// jobSpec is the payload a job carries: everything execute needs to run
// the simulation without the submitting request's connection or context.
type jobSpec struct {
	key   string // canonical request key; the job id is jobs.IDFor(key)
	id    string // experiment id
	rr    runRequest
	span  uint64 // submitter's span, re-attached for event correlation (0 = none)
	shard bool   // produce the shard artifact instead of a table
}

// serveMetrics are the pre-resolved registry handles for the serve.* names.
type serveMetrics struct {
	requests      *obs.Counter
	coalesced     *obs.Counter
	cacheHits     *obs.Counter
	cacheMisses   *obs.Counter
	simulations   *obs.Counter
	rejected      *obs.Counter
	timeouts      *obs.Counter
	panics        *obs.Counter
	inflight      *obs.Gauge
	cacheSize     *obs.Gauge
	latency       *obs.Histogram
	jobsCreated   *obs.Counter // serve.jobs.created
	jobsQueued    *obs.Counter // serve.jobs.queued
	jobsCompleted *obs.Counter // serve.jobs.completed
	jobsFailed    *obs.Counter // serve.jobs.failed
	jobsEvicted   *obs.Counter // serve.jobs.evicted
	jobsTracked   *obs.Gauge   // serve.jobs.tracked
	jobsQueue     *obs.Gauge   // serve.jobs.queue_depth
	diskHits      *obs.Counter // serve.disk_cache_hit
	diskMisses    *obs.Counter // serve.disk_cache_miss
	diskStale     *obs.Counter // serve.disk_cache_stale
	diskWrites    *obs.Counter // serve.disk_cache_write
	diskEvicts    *obs.Counter // serve.disk_cache_evict
	diskErrors    *obs.Counter // serve.disk_cache_error
}

// latencyBounds bucket request latency in milliseconds: sub-millisecond
// cache hits up to multi-minute cold simulations.
var latencyBounds = []float64{1, 5, 10, 50, 100, 500, 1000, 5000, 10000, 60000}

// Server is the HTTP experiment service. Create it with New; it implements
// none of http.Server's lifecycle itself — mount Handler on any server and
// call BeginDrain/Close around that server's Shutdown for a graceful exit.
type Server struct {
	cfg      Config
	reg      *obs.Registry
	sink     *obs.Sink
	progress *obs.Progress
	events   *obs.EventLog
	mux      *http.ServeMux
	sem      chan struct{}
	jobs     *jobTable // the lifecycle index over the result store

	// baseCtx parents every simulation context, so jobs outlive any single
	// client but die together on Close.
	baseCtx    context.Context
	baseCancel context.CancelFunc
	draining   atomic.Bool

	// run and runShard are the simulation entry points; tests substitute
	// them to make coalescing and saturation deterministic.
	run      func(ctx context.Context, id string, rr runRequest) (*stats.Table, error)
	runShard func(ctx context.Context, id string, rr runRequest) (*experiment.ShardFile, error)

	m serveMetrics
}

// New returns a Server for cfg. The trace store in use is instrumented
// into the server's registry (tracestore.* counters appear in /v1/metrics).
// It fails when cfg.Shard is malformed or cfg.CacheDir cannot be created
// or written.
func New(cfg Config) (*Server, error) {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = DefaultMaxConcurrent
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultTimeout
	}
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = DefaultCacheEntries
	}
	if cfg.MaxTraceLen <= 0 {
		cfg.MaxTraceLen = DefaultMaxTraceLen
	}
	if cfg.MaxSeeds <= 0 {
		cfg.MaxSeeds = DefaultMaxSeeds
	}
	if cfg.Shard != (plan.Shard{}) {
		if err := cfg.Shard.Validate(); err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
	}
	var disk *diskCache
	if cfg.CacheDir != "" {
		d, err := newDiskCache(cfg.CacheDir, cfg.DiskCacheEntries)
		if err != nil {
			return nil, err
		}
		disk = d
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	//lint:ignore ctxlint server construction is the process root; this context has no caller to inherit from
	ctx, cancel := context.WithCancel(context.Background())
	progress := obs.NewProgress()
	s := &Server{
		cfg:      cfg,
		reg:      reg,
		progress: progress,
		events:   cfg.EventLog,
		// The sink the simulations write through feeds the registry, the
		// live Progress aggregator and (when configured) the event log; the
		// plan runner inherits all three through Params.Obs.
		sink:       obs.New(reg, nil).WithProgress(progress).WithEventLog(cfg.EventLog),
		mux:        http.NewServeMux(),
		sem:        make(chan struct{}, cfg.MaxConcurrent),
		baseCtx:    ctx,
		baseCancel: cancel,
		m: serveMetrics{
			requests:      reg.Counter("serve.requests"),
			coalesced:     reg.Counter("serve.coalesced"),
			cacheHits:     reg.Counter("serve.cache_hit"),
			cacheMisses:   reg.Counter("serve.cache_miss"),
			simulations:   reg.Counter("serve.simulations"),
			rejected:      reg.Counter("serve.rejected"),
			timeouts:      reg.Counter("serve.timeouts"),
			panics:        reg.Counter("serve.panics"),
			inflight:      reg.Gauge("serve.inflight"),
			cacheSize:     reg.Gauge("serve.cache_entries"),
			latency:       reg.Histogram("serve.latency_ms", latencyBounds),
			jobsCreated:   reg.Counter("serve.jobs.created"),
			jobsQueued:    reg.Counter("serve.jobs.queued"),
			jobsCompleted: reg.Counter("serve.jobs.completed"),
			jobsFailed:    reg.Counter("serve.jobs.failed"),
			jobsEvicted:   reg.Counter("serve.jobs.evicted"),
			jobsTracked:   reg.Gauge("serve.jobs.tracked"),
			jobsQueue:     reg.Gauge("serve.jobs.queue_depth"),
			diskHits:      reg.Counter("serve.disk_cache_hit"),
			diskMisses:    reg.Counter("serve.disk_cache_miss"),
			diskStale:     reg.Counter("serve.disk_cache_stale"),
			diskWrites:    reg.Counter("serve.disk_cache_write"),
			diskEvicts:    reg.Counter("serve.disk_cache_evict"),
			diskErrors:    reg.Counter("serve.disk_cache_error"),
		},
	}
	s.jobs = newJobTable(cfg.CacheEntries, cfg.JobQueue, disk, &s.m)
	s.run = s.simulate
	s.runShard = s.shardFile
	s.store().Instrument(reg)
	if cfg.EventLog != nil {
		s.store().InstrumentEvents(cfg.EventLog)
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /v1/experiments", s.handleList)
	s.mux.HandleFunc("GET /v1/experiments/{id}", s.handleExperiment)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/progress", s.handleProgress)
	s.mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	s.mux.HandleFunc("POST /v1/merge", s.handleMerge)
	s.mux.HandleFunc("GET /metrics", s.handlePrometheus)
	if cfg.EnablePprof {
		s.mountPprof()
	}
	return s, nil
}

func (s *Server) store() *tracestore.Store {
	if s.cfg.Store != nil {
		return s.cfg.Store
	}
	return tracestore.Shared()
}

// Registry returns the server's metrics registry.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Handler returns the service's root handler: the API mux wrapped in the
// panic-recovery and request-metrics middleware.
func (s *Server) Handler() http.Handler { return s.instrumented(s.mux) }

// BeginDrain flips the server into draining mode: /healthz starts failing
// (so load balancers stop routing here) and new simulations are refused
// with 503, while jobs already admitted — including their coalesced
// followers and queued successors — run to completion. Call it right
// before http.Server.Shutdown.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Close aborts every in-flight simulation by canceling their shared parent
// context. Use it after a drain deadline expires; a graceful exit never
// needs it.
func (s *Server) Close() { s.baseCancel() }

// --- middleware ---

// statusRecorder captures the response code for the per-status counters.
type statusRecorder struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (r *statusRecorder) WriteHeader(code int) {
	if !r.wrote {
		r.code, r.wrote = code, true
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	r.wrote = true
	return r.ResponseWriter.Write(b)
}

// instrumented wraps next with panic recovery, the request counter, the
// latency histogram and per-status-code counters. It also mints the
// request's span id: every request gets a fresh "req-<n>" span attached
// to its context (and echoed in the X-Span response header), which the
// event log and the plan tracer use to correlate a request with the
// simulation cells it scheduled.
func (s *Server) instrumented(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.m.requests.Inc()
		ctx := obs.WithSpan(r.Context(), obs.NextSpan())
		r = r.WithContext(ctx)
		w.Header().Set("X-Span", obs.SpanName(ctx))
		s.events.Log(ctx, "serve", "request.start",
			obs.F("method", r.Method), obs.F("path", r.URL.Path))
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		defer func() {
			if p := recover(); p != nil {
				s.m.panics.Inc()
				if !rec.wrote {
					writeError(rec, &apiError{
						status:  http.StatusInternalServerError,
						Code:    "panic",
						Message: fmt.Sprint(p),
					})
				}
			}
			s.m.latency.Observe(float64(time.Since(start).Milliseconds()))
			s.reg.Counter(fmt.Sprintf("serve.status.%d", rec.code)).Inc()
			s.events.Log(ctx, "serve", "request.done",
				obs.F("method", r.Method), obs.F("path", r.URL.Path),
				obs.F("status", rec.code),
				obs.F("wall_ms", float64(time.Since(start))/float64(time.Millisecond)))
		}()
		next.ServeHTTP(rec, r)
	})
}

// --- handlers ---

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

// experimentInfo is one entry of the /v1/experiments listing.
type experimentInfo struct {
	ID          string `json:"id"`
	Description string `json:"description"`
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	var list []experimentInfo
	for _, id := range experiment.IDs() {
		desc, _ := experiment.Describe(id)
		list = append(list, experimentInfo{ID: id, Description: desc})
	}
	writeJSON(w, http.StatusOK, list)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.reg.Snapshot()
	if r.URL.Query().Get("format") == "json" {
		writeJSON(w, http.StatusOK, snap)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if err := snap.WriteText(w); err != nil {
		return // client went away mid-write; nothing useful left to do
	}
}

func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	spec, apiErr := s.parseSpec(r, r.PathValue("id"))
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	res, source, err := s.obtain(r.Context(), spec)
	if err != nil {
		writeError(w, s.classify(err))
		return
	}
	w.Header().Set("X-Cache", source)
	writeResult(w, res, spec.rr.Format)
}

// parseSpec validates one run request of experiment id — the experiment,
// the query parameters, the shard gate — and returns its job spec.
func (s *Server) parseSpec(r *http.Request, id string) (jobSpec, *apiError) {
	if _, ok := experiment.Describe(id); !ok {
		return jobSpec{}, &apiError{
			status:  http.StatusNotFound,
			Code:    "unknown_experiment",
			Message: fmt.Sprintf("unknown experiment %q; list them at /v1/experiments", id),
		}
	}
	rr, apiErr := parseRunRequest(r, s.cfg)
	if apiErr != nil {
		return jobSpec{}, apiErr
	}
	spec := jobSpec{key: rr.key(id), id: id, rr: rr, shard: rr.Format == "shard"}
	// A sharded replica suffixes its shard so that replicas sharing a
	// cache directory can never serve each other's partial tables.
	if s.cfg.Shard.Of > 1 {
		spec.key += "|shard=" + s.cfg.Shard.String()
	}
	if spec.shard {
		if !s.cfg.Shard.Enabled() {
			return jobSpec{}, &apiError{
				status:  http.StatusBadRequest,
				Code:    "bad_params",
				Message: "format=shard requires a sharded server (vpserve -shard n/m)",
			}
		}
		spec.key += "|artifact"
	}
	spec.span, _ = obs.SpanID(r.Context())
	return spec, nil
}

// classify maps a simulation error onto the API error space.
func (s *Server) classify(err error) *apiError {
	var ae *apiError
	switch {
	case errors.As(err, &ae):
		return ae
	case errors.Is(err, errSaturated):
		s.m.rejected.Inc()
		return &apiError{
			status:     http.StatusTooManyRequests,
			Code:       "saturated",
			Message:    fmt.Sprintf("all %d simulation slots are busy; retry shortly", s.cfg.MaxConcurrent),
			retryAfter: 1,
		}
	case errors.Is(err, errQueueFull):
		s.m.rejected.Inc()
		return &apiError{
			status:     http.StatusTooManyRequests,
			Code:       "queue_full",
			Message:    "the job queue is full; retry shortly",
			retryAfter: 1,
		}
	case errors.Is(err, context.DeadlineExceeded):
		s.m.timeouts.Inc()
		return &apiError{
			status:  http.StatusGatewayTimeout,
			Code:    "timeout",
			Message: fmt.Sprintf("simulation exceeded the %s server timeout; request a shorter tracelen or fewer workloads", s.cfg.Timeout),
		}
	case errors.Is(err, context.Canceled):
		return &apiError{
			status:  http.StatusServiceUnavailable,
			Code:    "canceled",
			Message: "simulation was canceled (server shutting down or client gone)",
		}
	default:
		return &apiError{
			status:  http.StatusInternalServerError,
			Code:    "internal",
			Message: err.Error(),
		}
	}
}

// --- the job core ---

// resolve is the one lookup behind every endpoint that names a job. It
// finds job id in the result store — memory, then disk — and then in the
// lifecycle index. With a spec (a request that can start the job), a
// failed job is dropped and, like a missing one, started afresh: queued
// when canQueue is set, shed otherwise. Without one (a fetch by id) it
// only reports what exists. source is where the answer came from: "hit"
// or "disk" for a stored result, "coalesced" for an existing job and
// "miss" for a job this call started.
func (s *Server) resolve(id string, spec *jobSpec, canQueue bool) (*result, *jobs.Job, string, error) {
	if r, source, ok := s.jobs.lookup(id); ok {
		return r, nil, source, nil
	}
	for {
		j, ok := s.jobs.Get(id)
		switch {
		case ok && (spec == nil || j.State() != jobs.StateFailed):
			return nil, j, "coalesced", nil
		case ok:
			s.jobs.Drop(j)
		default:
			// A job that settled since the lookup above stored its result
			// in memory before it left the index.
			if r, ok := s.jobs.memory(id); ok {
				return r, nil, "hit", nil
			}
			if spec == nil {
				return nil, nil, "", nil
			}
		}
		j, created, err := s.startJob(*spec, canQueue)
		if err != nil || created {
			return nil, j, "miss", err
		}
		// Lost the creation race; loop to join the winner.
	}
}

// obtain is the synchronous path: resolve spec's job, then wait for it
// to settle or for the caller's request context to end. A client that
// gives up leaves the job running for everyone else.
func (s *Server) obtain(reqCtx context.Context, spec jobSpec) (any, string, error) {
	r, j, source, err := s.resolve(jobs.IDFor(spec.key), &spec, false)
	switch {
	case err != nil:
		return nil, "", err
	case r != nil:
		return r.value, source, nil
	case source == "coalesced":
		s.m.coalesced.Inc()
		j.Followers.Add(1)
		defer j.Followers.Add(-1)
	}
	select {
	case <-j.Done():
		res, err := j.Result()
		return res, source, err
	case <-reqCtx.Done():
		return nil, "", reqCtx.Err()
	}
}

// startJob creates and admits the job for spec: it starts executing
// immediately when a simulation slot is free, waits in the bounded FIFO
// when canQueue is set, and is shed otherwise. The boolean reports
// whether this call created the job; false with a nil error means another
// submitter won the creation race.
func (s *Server) startJob(spec jobSpec, canQueue bool) (*jobs.Job, bool, error) {
	if s.Draining() {
		return nil, false, &apiError{
			status:  http.StatusServiceUnavailable,
			Code:    "draining",
			Message: "server is draining; no new simulations are accepted",
		}
	}
	j, created := s.jobs.Create(spec.key, spec.id, spec)
	if !created {
		return j, false, nil
	}
	defer s.syncJobGauges()
	select {
	case s.sem <- struct{}{}:
		s.m.jobsCreated.Inc()
		s.begin(j)
		return j, true, nil
	default:
	}
	shed := errSaturated
	if canQueue {
		if s.jobs.Enqueue(j) {
			s.m.jobsCreated.Inc()
			s.m.jobsQueued.Inc()
			// The last running job may have released its slot between the
			// select above and Enqueue, without seeing this job queued.
			s.admitQueued()
			return j, true, nil
		}
		shed = errQueueFull
	}
	// The job is already visible: a request that found it since Create
	// must wake with the same refusal, not wait on a job that never runs.
	s.jobs.Reject(j, shed)
	return nil, false, shed
}

// admitQueued starts queued jobs while a simulation slot is free.
func (s *Server) admitQueued() {
	for s.jobs.QueueLen() > 0 {
		select {
		case s.sem <- struct{}{}:
		default:
			return
		}
		j, ok := s.jobs.Dequeue()
		if !ok {
			<-s.sem
			return
		}
		s.begin(j)
	}
}

// begin marks the job running and launches its executor. The caller must
// hold a semaphore slot, which execute passes on or releases.
func (s *Server) begin(j *jobs.Job) {
	spec := j.Spec().(jobSpec)
	s.jobs.MarkRunning(j)
	if !spec.shard {
		s.m.cacheMisses.Inc()
	}
	s.m.simulations.Inc()
	s.m.inflight.Add(1)
	go s.execute(j)
}

// execute runs one admitted job to completion and settles it. The
// simulation context descends from the server, not the submitting
// request: the job outlives any client that asked for it (BeginDrain lets
// it finish, Close aborts it). On success the result lands in the result
// store before the job settles and leaves the index, so every waiter and
// reader finds it in one place or the other.
func (s *Server) execute(j *jobs.Job) {
	spec := j.Spec().(jobSpec)
	var value any
	var err error
	func() {
		ctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.Timeout)
		defer cancel()
		// Span propagation is value-only: the context descends from baseCtx
		// for cancellation, but re-attaching the submitter's span links every
		// cell event this job schedules back to its request.
		if spec.span != 0 {
			ctx = obs.WithSpan(ctx, spec.span)
		}
		simDone := s.events.Start(ctx, "serve", "simulation",
			obs.F("experiment", spec.id), obs.F("key", spec.key))
		// A panicking simulation settles the job as a structured error
		// instead of unwinding the goroutine: without this recover, one
		// panic would leak a semaphore slot forever, keep serve.inflight
		// inflated, and park every waiter on a job that never settles.
		defer func() {
			if p := recover(); p != nil {
				s.m.panics.Inc()
				value, err = nil, &apiError{
					status:  http.StatusInternalServerError,
					Code:    "panic",
					Message: fmt.Sprint(p),
				}
			}
			simDone(err == nil)
		}()
		if spec.shard {
			value, err = s.runShard(ctx, spec.id, spec.rr)
		} else {
			value, err = s.run(ctx, spec.id, spec.rr)
		}
	}()

	if err == nil {
		st := j.Status()
		st.State, st.Settled, st.Followers = jobs.StateDone, time.Now(), 0
		s.jobs.put(&result{status: st, value: value})
	}
	if n := s.jobs.Settle(j, value, err); n > 0 {
		s.m.jobsEvicted.Add(uint64(n))
	}
	if err != nil {
		s.m.jobsFailed.Inc()
	} else {
		s.m.jobsCompleted.Inc()
	}
	s.m.inflight.Add(-1)
	// Hand the slot straight to the next queued job, if any, so the queue
	// drains FIFO without releasing and re-acquiring the semaphore.
	if next, ok := s.jobs.Dequeue(); ok {
		s.begin(next)
	} else {
		<-s.sem
		s.admitQueued()
	}
	s.syncJobGauges()
}

// syncJobGauges refreshes the job index gauges after a mutation.
func (s *Server) syncJobGauges() {
	s.m.jobsTracked.Set(int64(s.jobs.Len()))
	s.m.jobsQueue.Set(int64(s.jobs.QueueLen()))
}

// simulate is the production run function: the experiment runners with the
// request's parameters, the server's trace store and its metrics sink. On
// a sharded replica the requested workloads are first restricted to this
// shard's partition, so the replica simulates only the rows it owns.
func (s *Server) simulate(ctx context.Context, id string, rr runRequest) (*stats.Table, error) {
	workloads := rr.Workloads
	if s.cfg.Shard.Of > 1 {
		workloads = s.cfg.Shard.Partition(workloads)
		if len(workloads) == 0 {
			return nil, &apiError{
				status: http.StatusBadRequest,
				Code:   "empty_shard",
				Message: fmt.Sprintf("shard %s owns none of the requested workloads; request more workloads or fetch format=shard artifacts and merge",
					s.cfg.Shard),
			}
		}
	}
	p := experiment.Params{
		Seed:      rr.Seed,
		TraceLen:  rr.TraceLen,
		Workloads: workloads,
		Store:     s.cfg.Store,
		Obs:       s.sink,
	}
	if rr.Seeds > 1 {
		seeds := make([]int64, rr.Seeds)
		for i := range seeds {
			seeds[i] = rr.Seed + int64(i)
		}
		return experiment.RunSeedsCtx(ctx, id, p, seeds)
	}
	return experiment.RunCtx(ctx, id, p)
}

// shardFile is the production artifact runner behind format=shard: the
// same parameters as simulate, run through experiment.RunShardFileCtx
// with the server's shard assignment.
func (s *Server) shardFile(ctx context.Context, id string, rr runRequest) (*experiment.ShardFile, error) {
	p := experiment.Params{
		Seed:      rr.Seed,
		TraceLen:  rr.TraceLen,
		Workloads: rr.Workloads,
		Store:     s.cfg.Store,
		Obs:       s.sink,
	}
	var seeds []int64
	if rr.Seeds > 1 {
		seeds = make([]int64, rr.Seeds)
		for i := range seeds {
			seeds[i] = rr.Seed + int64(i)
		}
	}
	return experiment.RunShardFileCtx(ctx, []string{id}, p, seeds, s.cfg.Shard)
}

// --- request parsing and canonicalization ---

// runRequest is the canonicalized form of one experiment request: defaults
// are filled in, workload names are trimmed, and the empty workload set is
// expanded to all eight benchmarks, so that every equivalent query string
// maps to the same coalescing/cache key.
type runRequest struct {
	Seed      int64
	TraceLen  int
	Seeds     int
	Workloads []string
	Format    string
}

// key is the coalescing and cache key: the canonical parameters, excluding
// the output format (all formats render from the same table).
func (rr runRequest) key(id string) string {
	return fmt.Sprintf("%s|seed=%d|len=%d|seeds=%d|wl=%s",
		id, rr.Seed, rr.TraceLen, rr.Seeds, strings.Join(rr.Workloads, ","))
}

// tableFormats are the text renderings of a table, matching vpsim's
// output flags, with their Content-Type. The other formats are "json",
// the marshaled stats.Table, and "shard", the mergeable artifact a
// sharded replica serves.
var tableFormats = map[string]struct {
	contentType string
	render      func(*stats.Table, io.Writer) error
}{
	"text":  {"text/plain; charset=utf-8", (*stats.Table).Render},
	"csv":   {"text/csv; charset=utf-8", (*stats.Table).RenderCSV},
	"md":    {"text/markdown; charset=utf-8", (*stats.Table).RenderMarkdown},
	"chart": {"text/plain; charset=utf-8", (*stats.Table).RenderChart},
}

// parseRunRequest validates and canonicalizes the query parameters.
func parseRunRequest(r *http.Request, cfg Config) (runRequest, *apiError) {
	q := r.URL.Query()
	bad := func(format string, args ...any) (runRequest, *apiError) {
		return runRequest{}, &apiError{
			status:  http.StatusBadRequest,
			Code:    "bad_params",
			Message: fmt.Sprintf(format, args...),
		}
	}
	rr := runRequest{Seed: 1, TraceLen: 200_000, Seeds: 1, Format: "text"}
	if v := q.Get("seed"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return bad("seed %q is not an integer", v)
		}
		rr.Seed = n
	}
	if v := q.Get("tracelen"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return bad("tracelen %q is not an integer", v)
		}
		rr.TraceLen = n
	}
	if rr.TraceLen <= 0 || rr.TraceLen > cfg.MaxTraceLen {
		return bad("tracelen must be in [1, %d], have %d", cfg.MaxTraceLen, rr.TraceLen)
	}
	if v := q.Get("seeds"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return bad("seeds %q is not an integer", v)
		}
		rr.Seeds = n
	}
	if rr.Seeds < 1 || rr.Seeds > cfg.MaxSeeds {
		return bad("seeds must be in [1, %d], have %d", cfg.MaxSeeds, rr.Seeds)
	}
	if v := q.Get("workloads"); v != "" {
		for _, name := range strings.Split(v, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if _, ok := workload.Get(name); !ok {
				return bad("unknown workload %q (have %s)", name, strings.Join(workload.Names(), ", "))
			}
			rr.Workloads = append(rr.Workloads, name)
		}
	}
	if len(rr.Workloads) == 0 {
		rr.Workloads = workload.Names()
	}
	if v := q.Get("format"); v != "" {
		if _, ok := tableFormats[v]; !ok && v != "json" && v != "shard" {
			return bad("unknown format %q (have text, csv, md, chart, json, shard)", v)
		}
		rr.Format = v
	}
	return rr, nil
}

// --- rendering ---

// tableFormat reads the format parameter of an endpoint that renders
// tables but not shard artifacts; it defaults to text.
func tableFormat(r *http.Request) (string, *apiError) {
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "text"
	}
	if _, ok := tableFormats[format]; !ok && format != "json" {
		return "", &apiError{
			status:  http.StatusBadRequest,
			Code:    "bad_params",
			Message: fmt.Sprintf("unknown format %q (have text, csv, md, chart, json)", format),
		}
	}
	return format, nil
}

// renderTables writes tabs in format, separated by a blank line as vpsim
// -merge prints them; the text, csv, md and chart formats are
// byte-identical to vpsim's -o output for the same parameters. The json
// format marshals asJSON instead: the caller's JSON view of the tables.
func renderTables(w http.ResponseWriter, format string, asJSON any, tabs ...*stats.Table) {
	f, ok := tableFormats[format]
	if !ok {
		writeJSON(w, http.StatusOK, asJSON)
		return
	}
	w.Header().Set("Content-Type", f.contentType)
	w.WriteHeader(http.StatusOK)
	for i, tab := range tabs {
		if i > 0 {
			fmt.Fprintln(w)
		}
		if err := f.render(tab, w); err != nil {
			return // headers are out; a render error here means the client left
		}
	}
}

// writeResult renders a job's result: a table in format, or a shard
// artifact as its JSON whatever the format.
func writeResult(w http.ResponseWriter, res any, format string) {
	switch v := res.(type) {
	case *experiment.ShardFile:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		if err := v.WriteJSON(w); err != nil {
			return // client went away mid-write
		}
	case *stats.Table:
		renderTables(w, format, v, v)
	default:
		writeError(w, &apiError{
			status:  http.StatusInternalServerError,
			Code:    "internal",
			Message: "job settled without a renderable result",
		})
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return // client went away mid-write
	}
}

func writeError(w http.ResponseWriter, e *apiError) {
	if e.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.retryAfter))
	}
	writeJSON(w, e.status, map[string]*apiError{"error": e})
}
