package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"valuepred"
	"valuepred/internal/obs"
	"valuepred/internal/stats"
)

// server is one vpserve process.
type server struct {
	cmd  *exec.Cmd
	base string // http://host:port
	log  *lineWatcher
}

// listening matches the line vpserve prints once its listener is up.
var listening = regexp.MustCompile(`vpserve: listening on (http://\S+)`)

// lineWatcher collects a process's standard error and reports the
// listening address as soon as it appears.
type lineWatcher struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string
	sent bool
}

func (w *lineWatcher) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if !w.sent {
		if m := listening.FindSubmatch(w.buf.Bytes()); m != nil {
			w.sent = true
			w.addr <- string(m[1])
		}
	}
	return len(p), nil
}

func (w *lineWatcher) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// startServer boots vpserve on a free port with a fresh cache directory
// and returns once /healthz answers.
func startServer(ctx context.Context, bin, cacheDir string, workers int) (*server, error) {
	if err := os.MkdirAll(cacheDir, 0o755); err != nil {
		return nil, err
	}
	w := &lineWatcher{addr: make(chan string, 1)}
	cmd := exec.Command(filepath.Join(bin, "vpserve"),
		"-addr", "127.0.0.1:0",
		"-workers", strconv.Itoa(workers),
		"-cache", strconv.Itoa(mix.lru),
		"-cache-dir", cacheDir,
		// Large enough that the disk tier never evicts during a run, so
		// every disk key stays a disk read.
		"-disk-cache-entries", "1000000")
	cmd.Stdout, cmd.Stderr = io.Discard, w
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, log: w}
	select {
	case s.base = <-w.addr:
	case <-time.After(30 * time.Second):
	case <-ctx.Done():
	}
	if s.base == "" {
		s.kill()
		return nil, fmt.Errorf("vpserve did not report its address: %s", w.String())
	}
	client := &http.Client{Timeout: time.Second}
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			s.kill()
			return nil, fmt.Errorf("vpserve /healthz never answered 200: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// cpuSeconds returns the server's user+system CPU time from /proc.
func (s *server) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th fields of the line, in clock ticks.
	_, rest, ok := strings.Cut(string(b), ") ")
	f := strings.Fields(rest)
	if !ok || len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (ut + st) / clockTicks, nil
}

// clockTicks is the kernel's USER_HZ, the unit of /proc CPU times; Linux
// fixes it at 100 on every architecture Go supports.
const clockTicks = 100

// stop drains the server with SIGTERM and returns its resource usage.
func (s *server) stop() (*syscall.Rusage, error) {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return nil, err
	}
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return nil, fmt.Errorf("vpserve exit: %v: %s", err, s.log.String())
		}
	case <-time.After(30 * time.Second):
		s.cmd.Process.Kill()
		<-done
		return nil, fmt.Errorf("vpserve did not drain within 30s")
	}
	ru, _ := s.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if ru == nil {
		return nil, fmt.Errorf("vpserve: no resource usage")
	}
	return ru, nil
}

// traceStoreCounts reads the server's trace-store hit and miss counters
// from its metrics endpoint into m.
func (s *server) traceStoreCounts(m map[string]float64) error {
	resp, err := http.Get(s.base + "/v1/metrics?format=json")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return fmt.Errorf("decode /v1/metrics: %w", err)
	}
	for _, name := range []string{"tracestore.hits", "tracestore.misses"} {
		v, _ := snap.Counter(name)
		m[name] = float64(v)
	}
	return nil
}

// renderResident computes the given tables in process, for the stats
// probe to render.
func renderResident(ctx context.Context, specs []tableSpec) ([]*stats.Table, error) {
	var out []*stats.Table
	for _, s := range specs {
		p := valuepred.DefaultParams()
		p.Seed, p.TraceLen, p.Workloads = s.Seed, s.Len, s.Workloads
		t, err := valuepred.RunExperimentCtx(ctx, s.Exp, p)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// kill ends the server without a drain, on error paths.
func (s *server) kill() {
	s.cmd.Process.Kill()
	s.cmd.Wait()
}

// sample is one completed request.
type sample struct {
	class   int     // by the X-Cache header
	planned int     // the class the mix intended
	latency float64 // seconds from send to reply
	done    float64 // seconds from the start of the loop to the reply
}

// loadGen drives a server with a closed loop of clients: each sends its
// next request only after the previous reply arrived. The request
// sequence is shared, so the whole run follows one seeded order. When a
// fresh seed is due by the mix's schedule, the next client to ask sends
// it instead of the next request of the sequence.
type loadGen struct {
	base   string
	seed   int64
	client *http.Client
	tally  *tally
	tr     *tracer

	mu       sync.Mutex
	next     int // index of the next request in the sequence
	plan     []plannedRequest
	planFor  int // block the plan holds
	missNext int // index of the next fresh-seed key
	missDue  time.Time
	start    time.Time // when run began
	until    time.Time // when run stops sending
	samples  []sample
	blockBeg map[int]time.Time
	blockEnd map[int]time.Time
	blockN   map[int]int
}

func newLoadGen(base string, seed int64, tl *tally, tr *tracer) *loadGen {
	return &loadGen{
		base: base, seed: seed, tally: tl, tr: tr,
		client: &http.Client{
			Timeout:   2 * time.Minute,
			Transport: &http.Transport{MaxIdleConnsPerHost: mix.clients, DisableCompression: true},
		},
		planFor:  -1,
		blockBeg: map[int]time.Time{},
		blockEnd: map[int]time.Time{},
		blockN:   map[int]int{},
	}
}

// missEvery is the interval between fresh-seed requests.
var missEvery = time.Second / time.Duration(mix.missesPerSecond)

// take returns the next request and its block, or block -1 for a fresh
// seed.
func (g *loadGen) take() (plannedRequest, int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	now := time.Now()
	if !now.Before(g.missDue) {
		g.missDue = g.missDue.Add(missEvery)
		i := g.missNext
		g.missNext++
		return plannedRequest{classMiss, mix.missKey(g.seed, i)}, -1
	}
	i := g.next
	g.next++
	b := i / mix.block
	if b != g.planFor {
		g.plan, g.planFor = mix.blockPlan(g.seed, b), b
	}
	if _, ok := g.blockBeg[b]; !ok {
		g.blockBeg[b] = now
	}
	return g.plan[i%mix.block], b
}

// get requests one table, checks the reply and returns the X-Cache class.
func (g *loadGen) get(ctx context.Context, s tableSpec) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, g.base+"/v1/experiments/"+s.key(), nil)
	if err != nil {
		return 0, err
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET %s: status %d: %s", s.key(), resp.StatusCode, bytes.TrimSpace(body))
	}
	g.tally.add(s, digestOf(body), 1)
	switch resp.Header.Get("X-Cache") {
	case "hit":
		return classHit, nil
	case "disk":
		return classDisk, nil
	default: // "miss", or "coalesced" onto an identical in-flight miss
		return classMiss, nil
	}
}

// run drives the closed loop until the deadline. The first fresh seed is
// due half an interval after the start.
func (g *loadGen) run(ctx context.Context, until time.Time) {
	g.start, g.until = time.Now(), until
	g.missDue = g.start.Add(missEvery / 2)
	var wg sync.WaitGroup
	for c := 0; c < mix.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(until) && ctx.Err() == nil {
				r, b := g.take()
				id := g.tr.start(0, "serve", "GET")
				t0 := time.Now()
				class, err := g.get(ctx, r.spec)
				t1 := time.Now()
				g.tr.end(id)
				if err != nil {
					g.tally.fail(err.Error())
				}
				g.mu.Lock()
				if err == nil {
					g.samples = append(g.samples, sample{class: class, planned: r.class, latency: t1.Sub(t0).Seconds(), done: t1.Sub(g.start).Seconds()})
				}
				if b >= 0 {
					if t1.After(g.blockEnd[b]) {
						g.blockEnd[b] = t1
					}
					g.blockN[b]++
				}
				g.mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

// secondCounts returns the requests completed in each second of the loop,
// so a rate taken from them as a median is not moved by a stall that
// lasts a few seconds. The loop's length is rounded to whole seconds: run
// starts a moment after its deadline was set.
func (g *loadGen) secondCounts() []float64 {
	out := make([]float64, int(math.Round(g.until.Sub(g.start).Seconds())))
	for _, x := range g.samples {
		if w := int(x.done); w < len(out) {
			out[w]++
		}
	}
	return out
}

// blockWalls returns the wall seconds of every block all of whose
// requests completed.
func (g *loadGen) blockWalls() []float64 {
	var out []float64
	for b, n := range g.blockN {
		if n == mix.block {
			out = append(out, g.blockEnd[b].Sub(g.blockBeg[b]).Seconds())
		}
	}
	return out
}

// prefill requests every resident key, mix.clients at a time, so each is
// simulated once and written to the server's cache directory.
func prefill(ctx context.Context, base string, seed int64, tl *tally) error {
	g := newLoadGen(base, seed, tl, nil)
	next := make(chan tableSpec)
	errs := make(chan error, mix.clients)
	for i := 0; i < mix.clients; i++ {
		go func() {
			var first error
			for s := range next {
				if _, err := g.get(ctx, s); err != nil && first == nil {
					first = err
				}
			}
			errs <- first
		}()
	}
	for _, s := range mix.resident(seed) {
		next <- s
	}
	close(next)
	var err error
	for i := 0; i < mix.clients; i++ {
		err = errors.Join(err, <-errs)
	}
	return err
}

// bootAndPrefill prepares a measured server and returns it with the
// seconds the preparation took. A first server fills a fresh cache
// directory with every resident key and is drained; the measured server
// then boots on that directory, as a restarted deployment would, so its
// LRU and job store start empty and the resident keys are on disk only.
// When counts is non-nil it receives the first server's trace-store
// counters after the prefill, which the mix fixes exactly.
func bootAndPrefill(ctx context.Context, env *runEnv, i int, tl *tally, counts map[string]float64) (*server, float64, error) {
	dir := env.tmpFile(fmt.Sprintf("cache-%d", i))
	t0 := time.Now()
	fill, err := startServer(ctx, env.bin, dir, env.workers)
	if err != nil {
		return nil, 0, err
	}
	if err := prefill(ctx, fill.base, env.seed, tl); err != nil {
		fill.kill()
		return nil, 0, err
	}
	if counts != nil {
		if err := fill.traceStoreCounts(counts); err != nil {
			fill.kill()
			return nil, 0, err
		}
	}
	if _, err := fill.stop(); err != nil {
		return nil, 0, err
	}
	s, err := startServer(ctx, env.bin, dir, env.workers)
	if err != nil {
		return nil, 0, err
	}
	return s, time.Since(t0).Seconds(), nil
}

// liveDiskFrac drives a server that prefilled its own cache directory,
// with no restart, for a short closed loop, and returns the share of the
// requests for LRU-evicted disk keys that it answered from disk. Today's
// vpserve re-simulates such a key while it still retains the key's settled
// job, so the share reads 0; a server that reads evicted keys back from
// disk brings it to 1. The measured server of serve-mix is a restarted
// one, whose disk keys are real disk reads, so its end-to-end figures do
// not show this behaviour; this share does.
func liveDiskFrac(ctx context.Context, env *runEnv, tl *tally) (float64, error) {
	s, err := startServer(ctx, env.bin, env.tmpFile("cache-live"), env.workers)
	if err != nil {
		return 0, err
	}
	if err := prefill(ctx, s.base, env.seed, tl); err != nil {
		s.kill()
		return 0, err
	}
	g := newLoadGen(s.base, env.seed, tl, nil)
	g.run(ctx, time.Now().Add(liveSeconds*time.Second))
	if _, err := s.stop(); err != nil {
		return 0, err
	}
	frac, evicted := evictedDiskShare(g.samples)
	if evicted == 0 {
		return 0, fmt.Errorf("live server: no request for an evicted disk key in %d s", liveSeconds)
	}
	return frac, nil
}

// evictedDiskShare returns the share of the requests for disk keys that
// the LRU no longer held (any reply but a hit) which were answered from
// disk, and the number of such requests.
func evictedDiskShare(samples []sample) (float64, int) {
	var evicted, disk int
	for _, x := range samples {
		if x.planned == classDisk && x.class != classHit {
			evicted++
			if x.class == classDisk {
				disk++
			}
		}
	}
	return ratio(float64(disk), float64(evicted)), evicted
}

// liveSeconds is how long liveDiskFrac drives its server.
const liveSeconds = 2

// serveParent runs the serve-mix workload: it sets up setupReps servers,
// keeps the last one, drives it for the run's budget and checks every
// served body against the oracle. A traced run splits the budget between
// an untraced and a traced closed loop, then runs the in-process layer
// probes.
func serveParent(ctx context.Context, env *runEnv) (*outcome, error) {
	tl := newTally()
	o := &outcome{tally: tl, metrics: map[string]float64{}}
	var setups []float64
	var srv *server
	reps := setupReps
	if env.traced {
		reps = 1 // setup_s is not reported by a traced run
	}
	for i := 0; i < reps; i++ {
		var counts map[string]float64
		if i == reps-1 {
			counts = o.metrics
		}
		s, secs, err := bootAndPrefill(ctx, env, i, tl, counts)
		if err != nil {
			return nil, err
		}
		setups = append(setups, secs)
		if i < reps-1 {
			if _, err := s.stop(); err != nil {
				return nil, err
			}
		} else {
			srv = s
		}
	}
	budget := time.Duration(env.seconds) * time.Second
	if !env.traced {
		cpu0, err := srv.cpuSeconds()
		if err != nil {
			srv.kill()
			return nil, err
		}
		g := newLoadGen(srv.base, env.seed, tl, nil)
		g.run(ctx, time.Now().Add(budget))
		cpu1, err := srv.cpuSeconds()
		if err != nil {
			srv.kill()
			return nil, err
		}
		ru, err := srv.stop()
		if err != nil {
			return nil, err
		}
		o.metrics["wall_s"] = median(g.blockWalls())
		o.metrics["cpu_s"] = ratio(cpu1-cpu0, float64(len(g.samples))/float64(mix.block))
		o.metrics["setup_s"] = median(setups)
		o.metrics["peak_rss_mb"] = float64(ru.Maxrss) / 1024
		o.metrics["serve_rps"] = median(g.secondCounts())
		return o, nil
	}

	// The untraced loop is the baseline for the tracing overhead.
	base := newLoadGen(srv.base, env.seed, tl, nil)
	base.run(ctx, time.Now().Add(budget*3/10))
	tr := newTracer(runID(env.workload, env.seed))
	o.traceFrom = tr.now()
	g := newLoadGen(srv.base, env.seed, tl, tr)
	g.next, g.missNext = base.next, base.missNext // continue the sequence: fresh seeds stay fresh
	g.run(ctx, time.Now().Add(budget*3/10))
	if _, err := srv.stop(); err != nil {
		return nil, err
	}
	o.metrics["trace_overhead_frac"] = ratio(median(g.blockWalls()), median(base.blockWalls())) - 1
	all := append(base.samples, g.samples...)
	for class, name := range []string{"hit", "disk", "miss"} {
		var lat []float64
		for _, s := range all {
			if s.class == class {
				lat = append(lat, s.latency*1000)
			}
		}
		sum := summarize(lat)
		o.metrics["serve_"+name+"_p50_ms"] = sum.P50
		o.metrics["serve_"+name+"_tail_ms"] = sum.Tail
		o.metrics["serve_"+name+"_tail_pct"] = sum.TailPc
		o.metrics["serve_"+name+"_n"] = float64(sum.N)
	}

	lenv, err := newLayerEnv(ctx, tr, env.seed, mix.traceLen)
	if err != nil {
		return nil, err
	}
	if err := lenv.emu(); err != nil {
		return nil, err
	}
	if err := lenv.tracestore(false); err != nil {
		return nil, err
	}
	lenv.jobs()
	resident := mix.resident(env.seed)
	if err := lenv.serve(env.tmpFile("inproc"), resident[:16], tl); err != nil {
		return nil, err
	}
	tables, err := renderResident(ctx, resident[:mix.hot])
	if err != nil {
		return nil, err
	}
	if err := lenv.stats(tables); err != nil {
		return nil, err
	}
	for k, v := range lenv.m {
		o.metrics[k] = v
	}
	o.spans, o.traceTo = tr.snapshot(), tr.now()
	// After the traced phase, so the span timeline does not include it.
	if o.metrics["serve.live_disk_frac"], err = liveDiskFrac(ctx, env, tl); err != nil {
		return nil, err
	}
	return o, nil
}
