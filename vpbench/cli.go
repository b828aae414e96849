package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"

	"valuepred"
	"valuepred/internal/stats"
)

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 31

// tableObs is one rendered table as the measured process saw it: the
// digest of its bytes, or the error that prevented it.
type tableObs struct {
	Spec   tableSpec `json:"spec"`
	Digest string    `json:"digest,omitempty"`
	Err    string    `json:"err,omitempty"`
}

// childResult is what the measured process of a CLI workload reports to
// the parent.
type childResult struct {
	SetupS    []float64  `json:"setup_s"`
	RoundWall []float64  `json:"round_wall_s"` // timed rounds (untraced)
	RoundCPU  []float64  `json:"round_cpu_s"`
	Tables    []tableObs `json:"tables"`

	// Traced runs only.
	TracedWall []float64          `json:"traced_round_wall_s,omitempty"`
	ExpSecs    map[string]float64 `json:"experiment_s,omitempty"` // median span seconds per experiment
	Layer      map[string]float64 `json:"layer,omitempty"`
	Spans      []span             `json:"spans,omitempty"`
	TraceFrom  float64            `json:"trace_from,omitempty"`
	TraceTo    float64            `json:"trace_to,omitempty"`
}

// cpuSeconds returns the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// setUp clears the trace store and preloads the workload's traces,
// returning the seconds the preload took. The collection beforehand keeps
// the previous set-up's garbage out of the measurement.
func (w cliWorkload) setUp(tr *tracer, seed int64) (float64, error) {
	valuepred.ResetTraceStore()
	runtime.GC()
	id := tr.start(0, "tracestore", "preload")
	t0 := time.Now()
	err := w.preload(seed)
	secs := time.Since(t0).Seconds()
	tr.end(id)
	return secs, err
}

// round runs every experiment of the workload once, renders each table as
// vpsim would and records its digest. With a tracer, each experiment run
// and each rendering is a span; expSecs then receives the experiment
// spans' durations.
func (w cliWorkload) round(ctx context.Context, tr *tracer, seed int64, res *childResult, expSecs map[string][]float64, keep *[]*stats.Table) {
	p := w.params(seed)
	for _, s := range w.tables(seed) {
		id := tr.start(0, "experiment", s.Exp)
		tab, err := valuepred.RunExperimentCtx(ctx, s.Exp, p)
		d := tr.end(id)
		if expSecs != nil {
			expSecs[s.Exp] = append(expSecs[s.Exp], d)
		}
		if err != nil {
			res.Tables = append(res.Tables, tableObs{Spec: s, Err: err.Error()})
			continue
		}
		var buf bytes.Buffer
		id = tr.start(0, "stats", "Render")
		err = tab.Render(&buf)
		tr.end(id)
		if err != nil {
			res.Tables = append(res.Tables, tableObs{Spec: s, Err: err.Error()})
			continue
		}
		res.Tables = append(res.Tables, tableObs{Spec: s, Digest: digestOf(buf.Bytes())})
		if keep != nil && len(*keep) < len(w.exps) {
			*keep = append(*keep, tab)
		}
	}
}

// runCLIChild is the measured process of a CLI workload. It sets up
// setupReps times, then runs rounds until the budget is spent, and writes
// its childResult as JSON to out.
func runCLIChild(ctx context.Context, name string, seed int64, budget time.Duration, traced bool, out string) error {
	w := cliSpecs[name]
	valuepred.SetWorkers(runtime.NumCPU())
	var res childResult
	if traced {
		if err := w.tracedChild(ctx, runID(name, seed), seed, budget, &res); err != nil {
			return err
		}
	} else {
		for i := 0; i < setupReps; i++ {
			secs, err := w.setUp(nil, seed)
			if err != nil {
				return err
			}
			res.SetupS = append(res.SetupS, secs)
		}
		start := time.Now()
		for len(res.RoundWall) == 0 || time.Since(start) < budget {
			if err := ctx.Err(); err != nil {
				return err
			}
			w0, c0 := time.Now(), cpuSeconds()
			w.round(ctx, nil, seed, &res, nil, nil)
			res.RoundWall = append(res.RoundWall, time.Since(w0).Seconds())
			res.RoundCPU = append(res.RoundCPU, cpuSeconds()-c0)
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	return os.WriteFile(out, b, 0o644)
}

// tracedChild is the traced run: untraced rounds first, as the baseline
// for the tracing overhead, then a traced phase of a set-up, as many
// traced rounds, and the layer probes. The span timeline covers the
// traced phase only.
func (w cliWorkload) tracedChild(ctx context.Context, run string, seed int64, budget time.Duration, res *childResult) error {
	if _, err := w.setUp(nil, seed); err != nil {
		return err
	}
	start := time.Now()
	for len(res.RoundWall) == 0 || time.Since(start) < budget*3/10 {
		w0 := time.Now()
		w.round(ctx, nil, seed, res, nil, nil)
		res.RoundWall = append(res.RoundWall, time.Since(w0).Seconds())
	}

	tr := newTracer(run)
	res.TraceFrom = tr.now()
	if _, err := w.setUp(tr, seed); err != nil {
		return err
	}
	expSecs := map[string][]float64{}
	var tables []*stats.Table
	var st valuepred.TraceStoreStats
	for i := range res.RoundWall {
		w0 := time.Now()
		w.round(ctx, tr, seed, res, expSecs, &tables)
		res.TracedWall = append(res.TracedWall, time.Since(w0).Seconds())
		if i == 0 {
			// One set-up and one round: the workload fixes both, so the
			// store's counts repeat exactly.
			st = valuepred.TraceStoreMetrics()
		}
	}

	env, err := newLayerEnv(ctx, tr, seed, w.traceLen)
	if err != nil {
		return err
	}
	env.m["tracestore.hits"] = float64(st.Hits)
	env.m["tracestore.misses"] = float64(st.Misses)
	if err := env.emu(); err != nil {
		return err
	}
	if err := env.tracestore(w.stream); err != nil {
		return err
	}
	if w.stream {
		// The chunk probe compresses the traces; the probes after it read
		// them through chunk cursors, as the streamed experiments do.
		if err := env.chunk(); err != nil {
			return err
		}
	}
	env.predictor()
	if w.stream {
		env.btb()
		env.fetch()
		env.core()
		if err := env.pipeline(); err != nil {
			return err
		}
	} else {
		env.dfg()
		if err := env.ideal(); err != nil {
			return err
		}
	}
	if err := env.plan(); err != nil {
		return err
	}
	if err := env.stats(tables); err != nil {
		return err
	}
	res.TraceTo = tr.now()
	res.Layer = env.m
	res.Spans = tr.snapshot()
	res.ExpSecs = map[string]float64{}
	for id, xs := range expSecs {
		res.ExpSecs[id] = median(xs)
	}
	return nil
}

// cliParent runs one CLI workload in a child process and turns its report
// into metrics. The child measures; this process checks every table
// against the oracle afterwards, so the check costs the measurement
// nothing.
func cliParent(ctx context.Context, env *runEnv, w cliWorkload) (*outcome, error) {
	outPath := env.tmpFile("child.json")
	args := []string{"-child", "-workload", env.workload, "-seed", fmt.Sprint(env.seed),
		"-seconds", fmt.Sprint(env.seconds), "-trace", traceFlag(env.traced), "-out", outPath}
	ru, err := env.runChild(ctx, args)
	if err != nil {
		return nil, err
	}
	b, err := os.ReadFile(outPath)
	if err != nil {
		return nil, fmt.Errorf("child report: %w", err)
	}
	var res childResult
	if err := json.Unmarshal(b, &res); err != nil {
		return nil, fmt.Errorf("child report: %w", err)
	}
	tl := newTally()
	for _, t := range res.Tables {
		if t.Err != "" {
			tl.fail(t.Spec.key() + ": " + t.Err)
			continue
		}
		tl.add(t.Spec, t.Digest, 1)
	}
	o := &outcome{tally: tl, metrics: map[string]float64{}}
	if !env.traced {
		var wall float64
		for _, x := range res.RoundWall {
			wall += x
		}
		o.metrics["wall_s"] = median(res.RoundWall)
		o.metrics["cpu_s"] = median(res.RoundCPU)
		o.metrics["setup_s"] = median(res.SetupS)
		o.metrics["peak_rss_mb"] = float64(ru.Maxrss) / 1024
		o.metrics["serve_rps"] = ratio(float64(len(res.RoundWall)*len(w.exps)), wall)
		return o, nil
	}
	for k, v := range res.Layer {
		o.metrics[k] = v
	}
	for id, s := range res.ExpSecs {
		o.metrics["experiment."+id+"_s"] = s
	}
	o.metrics["trace_overhead_frac"] = ratio(median(res.TracedWall), median(res.RoundWall)) - 1
	o.spans, o.traceFrom, o.traceTo = res.Spans, res.TraceFrom, res.TraceTo
	return o, nil
}
