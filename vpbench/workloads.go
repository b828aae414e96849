package main

import (
	"math/rand"

	"valuepred"
)

// cliWorkload is a set of experiments run through the library facade, as
// cmd/vpsim runs them, on traces preloaded before the timed phase.
type cliWorkload struct {
	exps     []string
	traceLen int
	stream   bool
}

// The two CLI workloads split the simulator between them: ideal-flat runs
// the Section 3 experiments (DID analysis, the stride predictor and the
// ideal machine) on materialized traces, so the realistic machine's
// layers (pipeline, fetch, btb, core, chunk) do no work; machine-stream
// runs the Section 4/5 experiments on streamed traces, so ideal and dfg do
// none. Each optimization of one half has a workload that exercises it and
// one that bypasses it.
var (
	idealFlat = cliWorkload{
		exps:     []string{"fig3.1", "fig3.3", "fig3.4", "fig3.5", "diag.useless", "ablation.predictor"},
		traceLen: 50_000,
	}
	machineStream = cliWorkload{
		exps:     []string{"fig5.1", "fig5.2", "fig5.3", "sec4"},
		traceLen: 25_000,
		stream:   true,
	}
)

// cliExperiments is every experiment the CLI workloads run, in report
// order; each gets an experiment.<id>_s layer metric.
var cliExperiments = append(append([]string(nil), idealFlat.exps...), machineStream.exps...)

func (w cliWorkload) params(seed int64) valuepred.Params {
	p := valuepred.DefaultParams()
	p.Seed = seed
	p.TraceLen = w.traceLen
	p.Stream = w.stream
	return p
}

// tables lists the tables one pass of the workload renders.
func (w cliWorkload) tables(seed int64) []tableSpec {
	var out []tableSpec
	for _, e := range w.exps {
		out = append(out, tableSpec{Exp: e, Seed: seed, Len: w.traceLen})
	}
	return out
}

// preload warms the shared trace store with every workload trace the
// experiments read.
func (w cliWorkload) preload(seed int64) error {
	if w.stream {
		return valuepred.PreloadStreamTraces(nil, seed, w.traceLen, 0)
	}
	return valuepred.PreloadTraces(nil, seed, w.traceLen)
}

// serveMix is the request mix of the serve-mix workload. Every request is
// a synchronous GET of one small table (one experiment on one benchmark
// analogue), so the serving layers, not the simulator, dominate hits and
// disk reads, while a miss pays for emulation and DID analysis.
//
// No request log backs the mix: the repository holds none. Every weight
// below is an assumption, chosen so that each class has enough samples in
// a run and the run's figures hold still; README.md says where each came
// from. Claims should rest on the per-class figures, which do not depend
// on the weights.
type serveMix struct {
	exps     []string
	traceLen int
	hot      int // keys kept resident in the server's LRU
	// disk keys are cycled through so the LRU evicts each before it comes
	// back. The measured server, booted on a directory another server
	// prefilled, reads them back from disk; the server that simulated them
	// would re-simulate them instead (see liveDiskFrac).
	disk      int
	lru       int // the server's -cache entries
	block     int // requests per block; each block has the same class mix
	blockDisk int // disk-key requests per block
	// missesPerSecond is the rate of fresh-seed requests. It is fixed in
	// time rather than a share of the requests, so a run simulates the
	// same number of fresh traces however fast the server answers, and the
	// server's memory, which grows with every trace it generates, does not
	// follow its throughput.
	missesPerSecond int
	clients         int // closed-loop clients, also the prefill's concurrency
}

var mix = serveMix{
	exps:            []string{"fig3.3", "fig3.4", "fig3.5"},
	traceLen:        10_000,
	hot:             4,
	disk:            32,
	lru:             16,
	block:           2048,
	blockDisk:       384,
	missesPerSecond: 5,
	clients:         2,
}

// committedMisses is how many fresh-seed keys per committed seed the
// digest file holds; later misses are rendered by vpsim after the run.
const committedMisses = 256

// key returns the j-th key of the run with the given seed. Keys below
// hot+disk are the resident keys; every later index is a fresh seed.
// Each key has its own data seed, so no two keys share a trace.
func (m serveMix) key(seed int64, j int) tableSpec {
	r := rand.New(rand.NewSource(seed*1_000_003 + int64(j)))
	names := valuepred.Benchmarks()
	return tableSpec{
		Exp:       m.exps[r.Intn(len(m.exps))],
		Seed:      seed*100_000 + int64(j),
		Len:       m.traceLen,
		Workloads: []string{names[r.Intn(len(names))].Name},
	}
}

// resident returns the hot and disk keys; the prefill requests them.
func (m serveMix) resident(seed int64) []tableSpec {
	out := make([]tableSpec, m.hot+m.disk)
	for j := range out {
		out[j] = m.key(seed, j)
	}
	return out
}

// missKey returns the i-th fresh-seed key.
func (m serveMix) missKey(seed int64, i int) tableSpec { return m.key(seed, m.hot+m.disk+i) }

// request classes of the mix, named after vpserve's X-Cache header.
const (
	classHit = iota
	classDisk
	classMiss
)

// plannedRequest is one request of the sequence.
type plannedRequest struct {
	class int // the class the mix intends; the served class is measured
	spec  tableSpec
}

// blockPlan returns block b of the request sequence: blockDisk disk keys
// taken round-robin and hot keys for the rest, in a seeded order. Fresh
// seeds are not part of a block; they come on their own schedule.
func (m serveMix) blockPlan(seed int64, b int) []plannedRequest {
	r := rand.New(rand.NewSource(seed*7_919 + int64(b)))
	out := make([]plannedRequest, 0, m.block)
	for i := 0; i < m.blockDisk; i++ {
		out = append(out, plannedRequest{classDisk, m.key(seed, m.hot+(b*m.blockDisk+i)%m.disk)})
	}
	for len(out) < m.block {
		out = append(out, plannedRequest{classHit, m.key(seed, r.Intn(m.hot))})
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// committedTables lists every table the digest file holds for a seed.
func committedTables(seed int64) []tableSpec {
	out := append(idealFlat.tables(seed), machineStream.tables(seed)...)
	out = append(out, mix.resident(seed)...)
	for i := 0; i < committedMisses; i++ {
		out = append(out, mix.missKey(seed, i))
	}
	return out
}
