package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"

	"valuepred/internal/btb"
	"valuepred/internal/chunk"
	"valuepred/internal/core"
	"valuepred/internal/dfg"
	"valuepred/internal/emu"
	"valuepred/internal/fetch"
	"valuepred/internal/ideal"
	"valuepred/internal/isa"
	"valuepred/internal/jobs"
	"valuepred/internal/pipeline"
	"valuepred/internal/plan"
	"valuepred/internal/predictor"
	"valuepred/internal/serve"
	"valuepred/internal/stats"
	"valuepred/internal/trace"
	"valuepred/internal/tracestore"
	"valuepred/internal/workload"
)

// layers are the program's modules (internal/<layer>) that the traced run
// times, in report order. "experiment" spans wrap whole experiment runs,
// whose self time therefore includes every layer the experiment calls.
var layers = []string{
	"emu", "tracestore", "chunk", "predictor", "dfg", "ideal", "btb", "fetch",
	"core", "pipeline", "plan", "experiment", "jobs", "serve", "stats",
}

// layerEnv is the state the layer probes of one traced run share. Each
// probe calls a layer's public functions directly, inside spans, on the
// workload's own traces, and does a fixed amount of work, so the time its
// spans take moves with the speed of the layer it times.
type layerEnv struct {
	ctx    context.Context
	tr     *tracer
	seed   int64
	n      int           // records per benchmark trace
	names  []string      // benchmark analogues, in presentation order
	traces [][]trace.Rec // one flat trace per name
	// seqs holds the traces compressed, one per name, once the chunk probe
	// has built them on a streamed workload; the other probes then read
	// them as the streamed experiments do. nil on a flat workload.
	seqs []*chunk.Seq
	m    map[string]float64
}

func newLayerEnv(ctx context.Context, tr *tracer, seed int64, n int) (*layerEnv, error) {
	e := &layerEnv{ctx: ctx, tr: tr, seed: seed, n: n, names: workload.Names(), m: map[string]float64{}}
	for _, name := range e.names {
		recs, err := workload.Trace(name, seed, n)
		if err != nil {
			return nil, err
		}
		e.traces = append(e.traces, recs)
	}
	return e, nil
}

// records is the number of records in one pass over every trace.
func (e *layerEnv) records() float64 {
	total := 0
	for _, t := range e.traces {
		total += len(t)
	}
	return float64(total)
}

// source returns a fresh Source over the first n records of trace i (all
// of them for n < 0), as the experiments feed their consumers: a chunk
// cursor on a streamed workload, else a slice source, which the consumers
// unwrap to their flat path.
func (e *layerEnv) source(i, n int) trace.Source {
	if n < 0 || n > len(e.traces[i]) {
		n = len(e.traces[i])
	}
	if e.seqs != nil {
		return chunk.NewCursor(e.seqs[i], n)
	}
	return trace.NewSliceSource(e.traces[i][:n])
}

// repeat calls fn the given number of times, one span per call, and
// returns the calls' seconds.
func (e *layerEnv) repeat(layer, name string, calls int, fn func()) float64 {
	var secs float64
	for i := 0; i < calls; i++ {
		id := e.tr.start(0, layer, name)
		fn()
		secs += e.tr.end(id)
	}
	return secs
}

// passes returns the number of passes over every trace that covers recs
// records, at least one.
func (e *layerEnv) passes(recs int) int {
	per := int(e.records())
	return max(1, (recs+per-1)/per)
}

// rate times fn over every trace, one span per pass, for as many passes as
// cover recs records, and returns millions of records per second. fn gets
// the pass number and the trace's index, so a probe can take its simulated
// counts from pass 0 alone.
func (e *layerEnv) rate(layer, name string, recs int, fn func(pass, i int)) float64 {
	calls := e.passes(recs)
	pass := 0
	secs := e.repeat(layer, name, calls, func() {
		for i := range e.traces {
			fn(pass, i)
		}
		pass++
	})
	return ratio(float64(calls)*e.records(), secs) / 1e6
}

func (e *layerEnv) emu() error {
	var progs []*isa.Program
	for _, name := range e.names {
		spec, _ := workload.Get(name)
		prog, err := spec.Build(e.seed)
		if err != nil {
			return err
		}
		progs = append(progs, prog)
	}
	var recs float64
	secs := e.repeat("emu", "Machine.Run", e.passes(3_000_000), func() {
		for _, p := range progs {
			recs += float64(len(emu.New(p).Run(e.n)))
		}
	})
	e.m["emu.minst_s"] = ratio(recs, secs) / 1e6
	return nil
}

// tracestore times the store's miss path (emulation plus insertion into a
// fresh store) and its hit path, flat or streamed.
func (e *layerEnv) tracestore(stream bool) error {
	get := func(s *tracestore.Store, name string) error {
		if stream {
			_, err := s.GetStream(name, e.seed, e.n, 0)
			return err
		}
		_, err := s.Get(name, e.seed, e.n)
		return err
	}
	var err error
	var warm *tracestore.Store
	calls := e.passes(2_400_000)
	missSecs := e.repeat("tracestore", "miss", calls, func() {
		warm = tracestore.New(0)
		for _, name := range e.names {
			if gerr := get(warm, name); gerr != nil {
				err = gerr
			}
		}
	})
	if err != nil {
		return err
	}
	const hitCalls, hitsPerCall = 200, 10_000
	hitSecs := e.repeat("tracestore", "hit", hitCalls, func() {
		for i := 0; i < hitsPerCall; i++ {
			if gerr := get(warm, e.names[i%len(e.names)]); gerr != nil {
				err = gerr
			}
		}
	})
	if err != nil {
		return err
	}
	prefix := "tracestore."
	if stream {
		prefix = "tracestore.stream_"
	}
	e.m[prefix+"miss_s"] = ratio(missSecs, float64(calls*len(e.names)))
	e.m[prefix+"hit_us"] = ratio(hitSecs, float64(hitCalls*hitsPerCall)) * 1e6
	return nil
}

// chunk times compressing the traces and decoding them back, and keeps the
// compressed traces for the probes that follow it.
func (e *layerEnv) chunk() error {
	seqs := make([]*chunk.Seq, len(e.traces))
	var err error
	e.m["chunk.build_minst_s"] = e.rate("chunk", "Build", 2_400_000, func(pass, i int) {
		q, berr := chunk.Build(trace.NewSliceSource(e.traces[i]), 0, 0)
		if berr != nil {
			err = berr
			return
		}
		if pass == 0 {
			seqs[i] = q
		}
	})
	if err != nil {
		return err
	}
	var bytes, recs float64
	for _, q := range seqs {
		bytes += float64(q.Bytes())
		recs += float64(q.Len())
	}
	e.m["chunk.bytes_per_rec"] = ratio(bytes, recs)
	e.seqs = seqs
	e.m["chunk.decode_minst_s"] = e.rate("chunk", "Cursor", 2_400_000, func(_, i int) {
		c := chunk.NewCursor(seqs[i], seqs[i].Len())
		for {
			if _, ok := c.Next(); !ok {
				break
			}
		}
		if c.Err() != nil {
			err = c.Err()
		}
	})
	return err
}

func (e *layerEnv) predictor() {
	var correct, attempted float64
	e.m["predictor.stride_minst_s"] = e.rate("predictor", "Evaluate/stride", 4_000_000, func(pass, i int) {
		a := predictor.EvaluateSource(predictor.NewStride(), e.source(i, -1))
		if pass == 0 {
			correct += float64(a.Correct)
			attempted += float64(a.Attempted)
		}
	})
	e.m["predictor.stride_hit_rate"] = ratio(correct, attempted)
	e.m["predictor.fcm_minst_s"] = e.rate("predictor", "Evaluate/fcm", 1_600_000, func(_, i int) {
		predictor.EvaluateSource(predictor.NewFCM(2), e.source(i, -1))
	})
	// The hybrid's hints profile the first quarter of each trace, as the
	// ablation.predictor experiment does.
	hints := make([]*predictor.ProfileHints, len(e.traces))
	for i, recs := range e.traces {
		hints[i] = predictor.ProfileSource(e.source(i, len(recs)/4), 0.6)
	}
	e.m["predictor.hybrid_minst_s"] = e.rate("predictor", "Evaluate/hybrid", 2_400_000, func(_, i int) {
		predictor.EvaluateSource(predictor.NewHybrid(1024, hints[i]), e.source(i, -1))
	})
}

func (e *layerEnv) dfg() {
	e.m["dfg.analyze_minst_s"] = e.rate("dfg", "Analyze", 2_800_000, func(_, i int) {
		dfg.AnalyzeSource(e.source(i, -1), dfg.Config{})
	})
}

func (e *layerEnv) ideal() error {
	var err error
	var useless, correct float64
	for _, width := range []int{4, 40} {
		w := strconv.Itoa(width)
		e.m["ideal.w"+w+"_minst_s"] = e.rate("ideal", "Run/w"+w, 800_000, func(pass, i int) {
			cfg := ideal.DefaultConfig(width)
			cfg.Predictor = predictor.NewClassifiedStride()
			r, rerr := ideal.Run(e.source(i, -1), cfg)
			if rerr != nil {
				err = rerr
			}
			if width == 4 && pass == 0 {
				useless += float64(r.Useless())
				correct += float64(r.Correct)
			}
		})
	}
	e.m["ideal.useless_frac"] = ratio(useless, correct)
	return err
}

// branch is one control-flow outcome fed to a branch predictor.
type branch struct {
	pc, target uint64
	taken      bool
}

func (e *layerEnv) btb() {
	var branches []branch
	for _, recs := range e.traces {
		for _, r := range recs {
			if r.Op.IsControl() {
				branches = append(branches, branch{r.PC, r.Target, r.Taken})
			}
		}
	}
	const calls = 300
	secs := e.repeat("btb", "TwoLevel", calls, func() {
		bp := btb.NewTwoLevel(btb.DefaultTwoLevelConfig())
		for _, b := range branches {
			bp.Predict(b.pc, b.taken, b.target)
			bp.Update(b.pc, b.taken, b.target)
		}
	})
	e.m["btb.twolevel_mbr_s"] = ratio(float64(calls*len(branches)), secs) / 1e6
}

// fetchWidth is the instructions per fetch the probes ask for: the width
// of the paper's Section 5 machine.
const fetchWidth = 40

func drain(eng fetch.Engine) fetch.Stats {
	for {
		if _, ok := eng.NextGroup(fetchWidth); !ok {
			return eng.Stats()
		}
	}
}

func twoLevel() btb.Predictor { return btb.NewTwoLevel(btb.DefaultTwoLevelConfig()) }

func (e *layerEnv) fetch() {
	var seq, tc fetch.Stats
	e.m["fetch.sequential_minst_s"] = e.rate("fetch", "Sequential", 4_000_000, func(pass, i int) {
		s := drain(fetch.NewSequentialSource(e.source(i, -1), twoLevel(), 4))
		if pass == 0 {
			seq.Predictions += s.Predictions
			seq.Mispredicts += s.Mispredicts
		}
	})
	e.m["fetch.branch_accuracy"] = seq.BranchAccuracy()
	e.m["fetch.tracecache_minst_s"] = e.rate("fetch", "TraceCache", 3_000_000, func(pass, i int) {
		s := drain(fetch.NewTraceCacheSource(e.source(i, -1), twoLevel(), fetch.DefaultTCConfig()))
		if pass == 0 {
			tc.TCLookups += s.TCLookups
			tc.TCHits += s.TCHits
		}
	})
	e.m["fetch.tc_hit_rate"] = tc.TCHitRate()
	e.m["fetch.collapsing_minst_s"] = e.rate("fetch", "CollapsingBuffer", 4_000_000, func(_, i int) {
		drain(fetch.NewCollapsingBufferSource(e.source(i, -1), twoLevel(), fetch.DefaultCBConfig()))
	})
}

// fetchedGroup is one trace-cache fetch group as the prediction network
// sees it: the PCs of its value-producing instructions and their values.
type fetchedGroup struct {
	pcs, vals []uint64
}

func (e *layerEnv) core() {
	var groups []fetchedGroup
	for _, recs := range e.traces {
		eng := fetch.NewTraceCache(recs, twoLevel(), fetch.DefaultTCConfig())
		for {
			g, ok := eng.NextGroup(fetchWidth)
			if !ok {
				break
			}
			var fg fetchedGroup
			for _, r := range g.Recs {
				if r.WritesValue() {
					fg.pcs = append(fg.pcs, r.PC)
					fg.vals = append(fg.vals, r.Val)
				}
			}
			groups = append(groups, fg)
		}
	}
	var st core.Stats
	const calls = 12
	secs := e.repeat("core", "Network", calls, func() {
		net := core.MustNew(core.DefaultConfig())
		for _, g := range groups {
			net.ProcessGroup(g.pcs)
			for i, pc := range g.pcs {
				net.Update(pc, g.vals[i])
			}
		}
		st = net.Stats() // identical on every call
	})
	e.m["core.groups_s"] = ratio(float64(calls*len(groups)), secs)
	e.m["core.deny_rate"] = st.DenyRate()
}

func (e *layerEnv) pipeline() error {
	var err error
	run := func(eng fetch.Engine, cfg pipeline.Config) {
		if _, rerr := pipeline.Run(eng, cfg); rerr != nil {
			err = rerr
		}
	}
	e.m["pipeline.seq_minst_s"] = e.rate("pipeline", "Run/sequential", 1_200_000, func(_, i int) {
		cfg := pipeline.DefaultConfig()
		cfg.Predictor = predictor.NewClassifiedStride()
		run(fetch.NewSequentialSource(e.source(i, -1), btb.NewPerfect(), 4), cfg)
	})
	e.m["pipeline.tc_minst_s"] = e.rate("pipeline", "Run/tracecache", 1_000_000, func(_, i int) {
		cfg := pipeline.DefaultConfig()
		cfg.Network = core.MustNew(core.DefaultConfig())
		run(fetch.NewTraceCacheSource(e.source(i, -1), twoLevel(), fetch.DefaultTCConfig()), cfg)
	})
	return err
}

// plan times the execution engine's dispatch cost over cells that do no
// work.
func (e *layerEnv) plan() error {
	const cells = 4096
	g := &plan.Grid{}
	for i := 0; i < cells; i++ {
		g.Add(plan.Key{Experiment: "noop", Seed: int64(i)}, func(context.Context) (any, error) { return nil, nil })
	}
	var err error
	const calls = 80
	secs := e.repeat("plan", "Run", calls, func() {
		if _, rerr := plan.Run(e.ctx, g, nil); rerr != nil {
			err = rerr
		}
	})
	e.m["plan.dispatch_us_per_cell"] = ratio(secs, float64(calls*cells)) * 1e6
	return err
}

// stats times the text rendering of the given tables.
func (e *layerEnv) stats(tables []*stats.Table) error {
	if len(tables) == 0 {
		return fmt.Errorf("stats probe: no tables to render")
	}
	const calls, rendersPerCall = 100, 100
	var buf bytes.Buffer
	var err error
	secs := e.repeat("stats", "Render", calls, func() {
		for i := 0; i < rendersPerCall; i++ {
			buf.Reset()
			if rerr := tables[i%len(tables)].Render(&buf); rerr != nil {
				err = rerr
			}
		}
	})
	e.m["stats.render_us"] = ratio(secs, float64(calls*rendersPerCall)) * 1e6
	return err
}

// jobs times a job's lifecycle in the job store: create, settle, look up.
func (e *layerEnv) jobs() {
	const perCall = 2000
	keys := make([]string, perCall)
	for i := range keys {
		keys[i] = "fig3.3?seed=" + strconv.Itoa(i)
	}
	const calls = 120
	secs := e.repeat("jobs", "Create+Settle+Get", calls, func() {
		st := jobs.NewStore(0, 0)
		for i, k := range keys {
			j, _ := st.Create(k, "fig3.3", nil)
			st.Settle(j, i, nil)
			st.Get(j.ID())
		}
	})
	e.m["jobs.lifecycle_us"] = ratio(secs, float64(calls*perCall)) * 1e6
}

// serve times the HTTP handler in process: LRU hits, and disk hits on a
// server with a one-entry LRU over a cache directory another server
// prefilled. The timed server must not be the one that simulated the keys:
// that one still holds their settled jobs and re-simulates the keys rather
// than read them from disk. Every body it is served goes to the tally for
// the digest check.
func (e *layerEnv) serve(dir string, keys []tableSpec, tl *tally) error {
	get := func(h http.Handler, s tableSpec) (string, error) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/experiments/"+s.key(), nil))
		if rec.Code != http.StatusOK {
			tl.fail(fmt.Sprintf("in-process %s: status %d", s.key(), rec.Code))
			return "", fmt.Errorf("in-process GET %s: status %d", s.key(), rec.Code)
		}
		tl.add(s, digestOf(rec.Body.Bytes()), 1)
		return rec.Header().Get("X-Cache"), nil
	}
	cacheDir := filepath.Join(dir, "inproc-cache")
	if err := os.MkdirAll(cacheDir, 0o755); err != nil {
		return err
	}
	fill, err := serve.New(serve.Config{CacheDir: cacheDir})
	if err != nil {
		return err
	}
	defer fill.Close()
	for _, s := range keys {
		if _, err := get(fill.Handler(), s); err != nil {
			return err
		}
	}
	srv, err := serve.New(serve.Config{CacheDir: cacheDir, CacheEntries: 1})
	if err != nil {
		return err
	}
	defer srv.Close()
	h := srv.Handler()
	var diskN, hitN int
	i := 0
	diskSecs := e.repeat("serve", "Handler/disk", 250, func() {
		for k := 0; k < len(keys); k++ {
			src, gerr := get(h, keys[i%len(keys)])
			i++
			if gerr != nil {
				err = gerr
			} else if src == "disk" {
				diskN++
			}
		}
	})
	hitSecs := e.repeat("serve", "Handler/hit", 80, func() {
		for k := 0; k < 200; k++ {
			src, gerr := get(h, keys[0])
			if gerr != nil {
				err = gerr
			} else if src == "hit" {
				hitN++
			}
		}
	})
	e.m["serve.handler_disk_us"] = ratio(diskSecs, float64(diskN)) * 1e6
	e.m["serve.handler_hit_us"] = ratio(hitSecs, float64(hitN)) * 1e6
	return err
}
