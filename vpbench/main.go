// Command vpbench is the repository's end-to-end benchmark. It runs one of
// three workloads, each in its own measured process, checks every table
// the program renders or serves against an output oracle, and prints its
// metrics as one JSON object on the last line of standard output:
//
//	bash vpbench/run.sh --workload ideal-flat --seed 1 --seconds 20 --trace 0
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it times
// the program's layers from spans around its calls into them and reports
// the per-layer metrics. README.md in this directory describes the
// workloads, every metric, and which layer metric should move which
// end-to-end metric.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef is one reported metric.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics an untraced run reports on every workload.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"serve_rps", "1/s"},
}

// perLayer are the metrics a traced run reports on every workload. A
// layer metric a workload does not exercise reads 0.
func perLayer() []metricDef {
	defs := []metricDef{
		{"emu.minst_s", "Minst/s"},
		{"tracestore.miss_s", "s"},
		{"tracestore.hit_us", "us"},
		{"tracestore.stream_miss_s", "s"},
		{"tracestore.stream_hit_us", "us"},
		{"tracestore.hits", "count"},
		{"tracestore.misses", "count"},
		{"chunk.build_minst_s", "Minst/s"},
		{"chunk.decode_minst_s", "Minst/s"},
		{"chunk.bytes_per_rec", "B"},
		{"predictor.stride_minst_s", "Minst/s"},
		{"predictor.fcm_minst_s", "Minst/s"},
		{"predictor.hybrid_minst_s", "Minst/s"},
		{"predictor.stride_hit_rate", "count"},
		{"dfg.analyze_minst_s", "Minst/s"},
		{"ideal.w4_minst_s", "Minst/s"},
		{"ideal.w40_minst_s", "Minst/s"},
		{"ideal.useless_frac", "count"},
		{"btb.twolevel_mbr_s", "Mbr/s"},
		{"fetch.sequential_minst_s", "Minst/s"},
		{"fetch.tracecache_minst_s", "Minst/s"},
		{"fetch.collapsing_minst_s", "Minst/s"},
		{"fetch.tc_hit_rate", "count"},
		{"fetch.branch_accuracy", "count"},
		{"core.groups_s", "1/s"},
		{"core.deny_rate", "count"},
		{"pipeline.seq_minst_s", "Minst/s"},
		{"pipeline.tc_minst_s", "Minst/s"},
		{"plan.dispatch_us_per_cell", "us"},
	}
	for _, id := range cliExperiments {
		defs = append(defs, metricDef{"experiment." + id + "_s", "s"})
	}
	defs = append(defs,
		metricDef{"jobs.lifecycle_us", "us"},
		metricDef{"serve.handler_hit_us", "us"},
		metricDef{"serve.handler_disk_us", "us"},
		metricDef{"serve.live_disk_frac", "count"},
		metricDef{"stats.render_us", "us"},
	)
	for _, class := range []string{"hit", "disk", "miss"} {
		defs = append(defs,
			metricDef{"serve_" + class + "_p50_ms", "ms"},
			metricDef{"serve_" + class + "_tail_ms", "ms"},
			metricDef{"serve_" + class + "_tail_pct", "%"},
			metricDef{"serve_" + class + "_n", "count"},
		)
	}
	for _, l := range append(append([]string(nil), layers...), "other") {
		defs = append(defs, metricDef{"span." + l + ".self_s", "s"})
	}
	return append(defs,
		metricDef{"trace_overhead_frac", "count"},
		metricDef{"failed_frac", "count"},
	)
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(context.Context, *runEnv) (*outcome, error){
	"ideal-flat":     func(ctx context.Context, e *runEnv) (*outcome, error) { return cliParent(ctx, e, idealFlat) },
	"machine-stream": func(ctx context.Context, e *runEnv) (*outcome, error) { return cliParent(ctx, e, machineStream) },
	"serve-mix":      serveParent,
}

var cliSpecs = map[string]cliWorkload{"ideal-flat": idealFlat, "machine-stream": machineStream}

// runEnv is one run's configuration and scratch space.
type runEnv struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	root     string // the source tree
	bin      string // directory holding vpsim and vpserve built from root
	tmp      string // this run's scratch directory, removed at exit
	workers  int
}

func (e *runEnv) tmpFile(name string) string { return filepath.Join(e.tmp, name) }

// runChild runs this binary again as the measured process and returns its
// resource usage.
func (e *runEnv) runChild(ctx context.Context, args []string) (*syscall.Rusage, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("measured process: %w", err)
	}
	ru, _ := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if ru == nil {
		return nil, errors.New("measured process: no resource usage")
	}
	return ru, nil
}

// outcome is what a workload run produced, before the oracle check.
type outcome struct {
	tally              *tally
	metrics            map[string]float64
	spans              []span
	traceFrom, traceTo float64
}

// metricValue is one metric as printed.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runID names a traced run in its spans.
func runID(workload string, seed int64) string {
	return fmt.Sprintf("%s/seed=%d/%s", workload, seed, time.Now().UTC().Format("20060102T150405.000"))
}

func traceFlag(traced bool) string {
	if traced {
		return "1"
	}
	return "0"
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vpbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload to run: ideal-flat, machine-stream or serve-mix")
		seed     = fs.Int64("seed", 1, "workload seed; every input derives from it")
		seconds  = fs.Int("seconds", 20, "seconds each run measures")
		trace    = fs.String("trace", "0", "1 = traced run reporting the per-layer metrics")
		root     = fs.String("root", ".", "root of the source tree under test")
		bin      = fs.String("bin", "", "directory holding the vpsim and vpserve binaries built from -root")
		child    = fs.Bool("child", false, "internal: be the measured process of a CLI workload")
		out      = fs.String("out", "", "internal: where the measured process writes its report")
		gen      = fs.Bool("gen-digests", false, "regenerate vpbench/digests.json with vpsim and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != "0" && *trace != "1" {
		fmt.Fprintf(stderr, "vpbench: -trace must be 0 or 1, have %q\n", *trace)
		return 2
	}
	if *seed < 0 || *seed >= 1<<40 {
		fmt.Fprintf(stderr, "vpbench: -seed must be in [0, 2^40), have %d\n", *seed)
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintf(stderr, "vpbench: -seconds must be >= 1, have %d\n", *seconds)
		return 2
	}
	budget := time.Duration(*seconds) * time.Second

	if *child {
		if _, ok := cliSpecs[*workload]; !ok {
			fmt.Fprintf(stderr, "vpbench: -child needs a CLI workload, have %q\n", *workload)
			return 2
		}
		if err := runCLIChild(ctx, *workload, *seed, budget, *trace == "1", *out); err != nil {
			fmt.Fprintf(stderr, "vpbench: measured process: %v\n", err)
			return 1
		}
		return 0
	}
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintf(stderr, "vpbench: %v\n", err)
		return 2
	}
	if *bin == "" {
		fmt.Fprintln(stderr, "vpbench: -bin is required (run it through vpbench/run.sh)")
		return 2
	}
	if *gen {
		if err := generateDigests(ctx, absRoot, *bin); err != nil {
			fmt.Fprintf(stderr, "vpbench: %v\n", err)
			return 1
		}
		return 0
	}
	runWorkload, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(stderr, "vpbench: unknown -workload %q (have ideal-flat, machine-stream, serve-mix)\n", *workload)
		return 2
	}
	env := &runEnv{
		workload: *workload, seed: *seed, seconds: *seconds, traced: *trace == "1",
		root: absRoot, bin: *bin, workers: runtime.NumCPU(),
	}
	res, err := execute(ctx, env, runWorkload, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "vpbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "vpbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// execute runs one workload end to end: measure, check every table
// against the oracle, write the run's artifacts, and assemble the result.
func execute(ctx context.Context, env *runEnv, runWorkload func(context.Context, *runEnv) (*outcome, error), stdout io.Writer) (*result, error) {
	outDir := filepath.Join(env.root, ".bench_build", "vpbench", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(filepath.Join(env.root, ".bench_build", "vpbench"), "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	env.tmp = tmp
	digests, err := loadDigests(filepath.Join(env.root, "vpbench", "digests.json"))
	if err != nil {
		return nil, err
	}

	o, err := runWorkload(ctx, env)
	if err != nil {
		return nil, err
	}
	orc := &oracle{committed: digests.Tables, vpsim: filepath.Join(env.bin, "vpsim"), procs: env.workers}
	want, rendered, err := orc.expected(ctx, o.tally.specs())
	if err != nil {
		return nil, err
	}
	attempted, failed, msgs := o.tally.check(want)
	for _, m := range msgs {
		fmt.Fprintf(stdout, "mismatch: %s\n", m)
	}

	rec := newRecord(env.root, env.workers, clientsFor(env.workload))
	recLine, _ := json.Marshal(rec)
	fmt.Fprintf(stdout, "record: %s\n", recLine)
	fmt.Fprintf(stdout, "oracle: %d distinct tables checked, %d of their digests rendered by vpsim for this run\n", len(want), rendered)

	defs := endToEnd
	if env.traced {
		defs = perLayer()
		o.metrics["failed_frac"] = ratio(float64(failed), float64(attempted))
		self := selfTimes(o.spans, o.traceFrom, o.traceTo)
		for _, l := range append(append([]string(nil), layers...), "other") {
			o.metrics["span."+l+".self_s"] = self[l]
		}
		printSelfTimes(stdout, env.workload, self, o.traceTo-o.traceFrom)
		if err := writeJSON(filepath.Join(outDir, fmt.Sprintf("%s-seed%d-spans.json", env.workload, env.seed)), o.spans); err != nil {
			return nil, err
		}
	}
	res := &result{Correct: failed == 0 && attempted > 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := o.metrics[d.Name]
		if !ok && !env.traced {
			return nil, fmt.Errorf("workload %s did not measure %s", env.workload, d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	full := struct {
		Workload string        `json:"workload"`
		Seed     int64         `json:"seed"`
		Seconds  int           `json:"seconds"`
		Traced   bool          `json:"traced"`
		Record   machineRecord `json:"record"`
		Result   *result       `json:"result"`
	}{env.workload, env.seed, env.seconds, env.traced, rec, res}
	name := fmt.Sprintf("%s-seed%d-trace%s.json", env.workload, env.seed, traceFlag(env.traced))
	if err := writeJSON(filepath.Join(outDir, name), full); err != nil {
		return nil, err
	}
	return res, nil
}

// clientsFor is the number of concurrent clients a workload drives.
func clientsFor(workload string) int {
	if workload == "serve-mix" {
		return mix.clients
	}
	return 1
}

// printSelfTimes prints the traced phase's wall time split by layer.
func printSelfTimes(w io.Writer, workload string, self map[string]float64, wall float64) {
	fmt.Fprintf(w, "self time by layer, %s, traced wall %.3f s:\n", workload, wall)
	names := make([]string, 0, len(self))
	for l := range self {
		names = append(names, l)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	var sum float64
	for _, l := range names {
		sum += self[l]
		fmt.Fprintf(w, "  %-12s %9.3f s %6.1f%%\n", l, self[l], 100*ratio(self[l], wall))
	}
	fmt.Fprintf(w, "  %-12s %9.3f s %6.1f%%\n", "total", sum, 100*ratio(sum, wall))
}

func writeJSON(path string, v any) error {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false) // keep the & of digest keys readable
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return err
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// generateDigests renders every table of the committed seeds with vpsim
// and writes vpbench/digests.json.
func generateDigests(ctx context.Context, root, bin string) error {
	seeds := []int64{1, 2}
	var specs []tableSpec
	for _, s := range seeds {
		specs = append(specs, committedTables(s)...)
	}
	got, err := renderWithVpsim(ctx, filepath.Join(bin, "vpsim"), runtime.NumCPU(), specs)
	if err != nil {
		return err
	}
	f := digestFile{Generator: generatorNote, Seeds: seeds, Tables: got}
	path := filepath.Join(root, "vpbench", "digests.json")
	if err := writeJSON(path, f); err != nil {
		return err
	}
	fmt.Printf("wrote %d digests to %s\n", len(got), strings.TrimPrefix(path, root+"/"))
	return nil
}
