package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary when a
// run re-executes itself as the measured process.
func TestMain(m *testing.M) {
	for _, a := range os.Args[1:] {
		if a == "-child" {
			os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
		}
	}
	os.Exit(m.Run())
}

func TestSelfTimesAccountForWall(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "experiment", Start: 1, End: 5},
		{ID: 2, Parent: 1, Layer: "plan", Start: 2, End: 3},
		// Two concurrent spans share the instants they overlap.
		{ID: 3, Layer: "serve", Start: 6, End: 8},
		{ID: 4, Layer: "serve", Start: 7, End: 9},
		{ID: 5, Layer: "jobs", Start: 7, End: 8},
	}
	got := selfTimes(spans, 0, 10)
	want := map[string]float64{
		"experiment": 3, "plan": 1,
		"serve": 1 + 2.0/3 + 1, "jobs": 1.0 / 3,
		"other": 1 + 1 + 1, // [0,1), [5,6) and [9,10)
	}
	var sum float64
	for l, v := range got {
		sum += v
		if math.Abs(v-want[l]) > 1e-9 {
			t.Errorf("%s: self time %v, want %v", l, v, want[l])
		}
	}
	if math.Abs(sum-10) > 1e-9 {
		t.Errorf("self times sum to %v, want the traced wall 10", sum)
	}
}

func TestSummarizeTail(t *testing.T) {
	var xs []float64
	for i := 1; i <= 1000; i++ {
		xs = append(xs, float64(i))
	}
	s := summarize(xs)
	// 1000 samples: p99 leaves 10 beyond it, p99.9 only 1.
	if s.N != 1000 || s.P50 != 500 || s.TailPc != 99 || s.Tail != 990 {
		t.Errorf("summarize(1..1000) = %+v", s)
	}
	if s := summarize(xs[:15]); s.TailPc != 0 || s.Tail != 0 {
		t.Errorf("15 samples support no tail, got %+v", s)
	}
}

func TestTallyCheck(t *testing.T) {
	spec := tableSpec{Exp: "fig3.3", Seed: 1, Len: 1000}
	table := []byte("Figure 3.3\ngcc 1.0\n")
	want := map[string]string{spec.key(): digestOf(table)}

	ok := newTally()
	ok.add(spec, digestOf(table), 3)
	if a, f, _ := ok.check(want); a != 3 || f != 0 {
		t.Errorf("matching tables: attempted %d failed %d, want 3 and 0", a, f)
	}

	tampered := newTally()
	tampered.add(spec, digestOf(bytes.Replace(table, []byte("1.0"), []byte("1.1"), 1)), 1)
	tampered.add(spec, digestOf(table), 2)
	tampered.fail("GET: status 500")
	if a, f, msgs := tampered.check(want); a != 4 || f != 2 || len(msgs) != 2 {
		t.Errorf("tampered table: attempted %d failed %d msgs %q, want 4, 2 and two messages", a, f, msgs)
	}

	badDigest := map[string]string{spec.key(): digestOf([]byte("other"))}
	if _, f, _ := ok.check(badDigest); f != 3 {
		t.Errorf("tampered digest: failed %d, want 3", f)
	}
	if _, f, _ := ok.check(map[string]string{}); f != 3 {
		t.Errorf("missing digest: failed %d, want 3", f)
	}
}

// TestBlockPlanMix pins the request mix: every block has the same class
// counts, and the sequence depends on the seed alone.
func TestBlockPlanMix(t *testing.T) {
	for b := 0; b < 20; b++ {
		plan := mix.blockPlan(7, b)
		if len(plan) != mix.block {
			t.Fatalf("block %d has %d requests", b, len(plan))
		}
		counts := map[int]int{}
		for _, r := range plan {
			counts[r.class]++
		}
		if counts[classDisk] != mix.blockDisk || counts[classHit] != mix.block-mix.blockDisk {
			t.Errorf("block %d class counts %v", b, counts)
		}
	}
	a, b := mix.blockPlan(7, 3), mix.blockPlan(7, 3)
	for i := range a {
		if a[i].spec.key() != b[i].spec.key() {
			t.Fatal("block plan is not a function of seed and block")
		}
	}
}

// TestEvictedDiskShare checks the live-server share: only requests for
// disk keys that missed the LRU count, and of those the disk reads.
func TestEvictedDiskShare(t *testing.T) {
	samples := []sample{
		{class: classHit, planned: classDisk},  // still in the LRU: not counted
		{class: classMiss, planned: classDisk}, // re-simulated
		{class: classDisk, planned: classDisk},
		{class: classDisk, planned: classDisk},
		{class: classMiss, planned: classMiss}, // a fresh seed: not counted
		{class: classHit, planned: classHit},
	}
	if frac, n := evictedDiskShare(samples); n != 3 || math.Abs(frac-2.0/3) > 1e-12 {
		t.Errorf("evictedDiskShare = %v over %d requests, want 2/3 over 3", frac, n)
	}
	if frac, n := evictedDiskShare(samples[:2]); n != 1 || frac != 0 {
		t.Errorf("all evicted keys re-simulated: %v over %d, want 0 over 1", frac, n)
	}
}

// TestSecondCounts checks that requests are counted in the second of the
// loop they completed in, that replies after the deadline are left out,
// and that a loop a moment short of whole seconds keeps its last second.
func TestSecondCounts(t *testing.T) {
	g := &loadGen{start: time.Unix(100, 0), until: time.Unix(103, 0).Add(-time.Microsecond)}
	for _, done := range []float64{0.1, 0.9, 1.5, 2.2, 2.3, 2.9, 3.2} {
		g.samples = append(g.samples, sample{done: done})
	}
	got := g.secondCounts()
	if want := []float64{2, 1, 3}; len(got) != len(want) || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Errorf("secondCounts = %v, want %v", got, want)
	}
	if m := median(got); m != 2 {
		t.Errorf("median rate %v, want 2", m)
	}
}

// TestFreshSeedsFollowTheClock checks that fresh seeds are sent on their
// schedule, each a key no other request uses.
func TestFreshSeedsFollowTheClock(t *testing.T) {
	g := newLoadGen("", 7, newTally(), nil)
	g.missDue = time.Now().Add(-3 * missEvery / 2) // two fresh seeds due
	seen := map[string]bool{}
	for _, s := range mix.resident(7) {
		seen[s.key()] = true
	}
	for i := 0; i < 2; i++ {
		r, b := g.take()
		if r.class != classMiss || b != -1 || seen[r.spec.key()] {
			t.Fatalf("request %d: class %d block %d key %s, want an unused fresh seed", i, r.class, b, r.spec.key())
		}
		seen[r.spec.key()] = true
	}
	if r, b := g.take(); r.class == classMiss || b != 0 {
		t.Errorf("third request: class %d block %d, want the sequence's first request", r.class, b)
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metrics the
// code reports in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Command   []string `json:"command"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	var code []string
	for w := range workloads {
		code = append(code, w)
	}
	sort.Strings(names)
	sort.Strings(code)
	if strings.Join(names, ",") != strings.Join(code, ",") {
		t.Errorf("BENCHMARK.json workloads %v, code runs %v", names, code)
	}
	check := func(kind string, listed []metricDef, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, code reports %d", kind, len(listed), len(defs))
			return
		}
		for i := range defs {
			if listed[i] != defs[i] {
				t.Errorf("%s metric %d: BENCHMARK.json %v, code %v", kind, i, listed[i], defs[i])
			}
		}
	}
	var e2e, layer []metricDef
	for _, m := range bench.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range bench.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	check("end_to_end", e2e, endToEnd)
	check("per_layer", layer, perLayer())
}

// buildBinaries builds vpsim and vpserve from the enclosing source tree.
func buildBinaries(t *testing.T) string {
	t.Helper()
	bin := t.TempDir()
	for _, cmd := range []string{"vpsim", "vpserve"} {
		out, err := exec.Command("go", "build", "-o", filepath.Join(bin, cmd), "../cmd/"+cmd).CombinedOutput()
		if err != nil {
			t.Fatalf("build %s: %v\n%s", cmd, err, out)
		}
	}
	return bin
}

// TestCommittedDigestsMatchVpsim re-renders a sample of the committed
// tables, one per experiment kind and seed, and compares them with
// digests.json.
func TestCommittedDigestsMatchVpsim(t *testing.T) {
	if testing.Short() {
		t.Skip("renders tables with vpsim")
	}
	bin := buildBinaries(t)
	f, err := loadDigests("digests.json")
	if err != nil {
		t.Fatal(err)
	}
	var sample []tableSpec
	for _, seed := range f.Seeds {
		sample = append(sample, tableSpec{Exp: "fig3.3", Seed: seed, Len: idealFlat.traceLen}, mix.key(seed, 0), mix.missKey(seed, committedMisses-1))
	}
	got, err := renderWithVpsim(context.Background(), filepath.Join(bin, "vpsim"), 2, sample)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sample {
		if want := f.Tables[s.key()]; got[s.key()] != want {
			t.Errorf("%s: vpsim renders %.12s, digests.json has %.12s", s.key(), got[s.key()], want)
		}
	}
}

// runOnce runs one workload for a second in a scratch root holding the
// given digest file and returns the result and the text printed.
func runOnce(t *testing.T, bin, workload string, digests digestFile) (*result, string) {
	t.Helper()
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "vpbench"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := writeJSON(filepath.Join(root, "vpbench", "digests.json"), digests); err != nil {
		t.Fatal(err)
	}
	env := &runEnv{workload: workload, seed: 1, seconds: 1, root: root, bin: bin, workers: 2}
	var out bytes.Buffer
	res, err := execute(context.Background(), env, workloads[workload], &out)
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, out.String())
	}
	return res, out.String()
}

// TestRunChecksEveryTable runs each workload against the committed digests
// (every operation passes) and against a copy with one digest tampered
// (the operations on that table fail and so does the run).
func TestRunChecksEveryTable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the workloads")
	}
	bin := buildBinaries(t)
	committed, err := loadDigests("digests.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		workload string
		tamper   tableSpec
	}{
		{"ideal-flat", tableSpec{Exp: "fig3.4", Seed: 1, Len: idealFlat.traceLen}},
		{"serve-mix", mix.key(1, 0)},
	} {
		res, out := runOnce(t, bin, tc.workload, committed)
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s with committed digests: correct %v attempted %d failed %d\n%s", tc.workload, res.Correct, res.Attempted, res.Failed, out)
		}
		for _, m := range endToEnd {
			if v := res.Metrics[m.Name].Value; !(v > 0) {
				t.Errorf("%s: %s = %v, want > 0", tc.workload, m.Name, v)
			}
		}

		bad := digestFile{Seeds: committed.Seeds, Tables: map[string]string{}}
		for k, v := range committed.Tables {
			bad.Tables[k] = v
		}
		bad.Tables[tc.tamper.key()] = digestOf([]byte("tampered"))
		res, out = runOnce(t, bin, tc.workload, bad)
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s with a tampered digest: correct %v failed %d, want a failed run", tc.workload, res.Correct, res.Failed)
		}
		if !strings.Contains(out, "mismatch: table "+tc.tamper.key()) {
			t.Errorf("%s: no mismatch reported for %s:\n%s", tc.workload, tc.tamper.key(), out)
		}
	}
}
