package ideal

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"valuepred/internal/isa"
	"valuepred/internal/obs"
	"valuepred/internal/predictor"
	"valuepred/internal/trace"
	"valuepred/internal/workload"
)

// outcome is everything one simulation run makes visible: its result, the
// (seq, fetch, exec) triple of every instruction, the tracer JSON and the
// metric snapshot.
type outcome struct {
	res     Result
	err     string
	timing  [][3]uint64
	tracer  string
	metrics string
}

// observe runs sim over recs under a fresh cfg with full telemetry. The
// Observer triples are sorted by sequence number: Run reports them in
// trace order, the reference in execution order.
func observe(sim func(trace.Source, Config) (Result, error), recs []trace.Rec, cfg Config) outcome {
	var out outcome
	reg, tr := obs.NewRegistry(), obs.NewTracer(1)
	cfg.Obs = obs.New(reg, tr)
	cfg.Observer = func(seq, fetch, exec uint64) {
		out.timing = append(out.timing, [3]uint64{seq, fetch, exec})
	}
	res, err := sim(trace.NewSliceSource(recs), cfg)
	out.res = res
	if err != nil {
		out.err = err.Error()
	}
	sort.Slice(out.timing, func(i, j int) bool { return out.timing[i][0] < out.timing[j][0] })
	var sb strings.Builder
	if err := tr.WriteJSON(&sb); err != nil {
		panic(err)
	}
	out.tracer = sb.String()
	sb.Reset()
	if err := reg.Snapshot().WriteText(&sb); err != nil {
		panic(err)
	}
	out.metrics = sb.String()
	return out
}

// matchReference fails t unless Run and runReference produce identical
// outcomes. mk must return a fresh Config (with a fresh predictor) per call.
func matchReference(t testing.TB, name string, recs []trace.Rec, mk func() Config) {
	t.Helper()
	got, want := observe(Run, recs, mk()), observe(runReference, recs, mk())
	switch {
	case got.err != want.err:
		t.Errorf("%s: error %q, reference %q", name, got.err, want.err)
	case got.res != want.res:
		t.Errorf("%s: result %+v, reference %+v", name, got.res, want.res)
	case !reflect.DeepEqual(got.timing, want.timing):
		t.Errorf("%s: (seq, fetch, exec) differ: %s", name, firstTimingDiff(got.timing, want.timing))
	case got.tracer != want.tracer:
		t.Errorf("%s: tracer JSON differs at byte %d", name, firstByteDiff(got.tracer, want.tracer))
	case got.metrics != want.metrics:
		t.Errorf("%s: metric snapshot differs:\n%s\nreference:\n%s", name, got.metrics, want.metrics)
	}
}

func firstTimingDiff(got, want [][3]uint64) string {
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return fmt.Sprintf("got %v, reference %v", got[i], want[i])
		}
	}
	return fmt.Sprintf("%d triples, reference %d", len(got), len(want))
}

func firstByteDiff(a, b string) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// referenceConfigs are the machine variants of the differential sweep.
var referenceConfigs = []struct {
	name string
	mk   func(width int) Config
}{
	{"novp", DefaultConfig},
	{"classified-stride", func(w int) Config {
		cfg := DefaultConfig(w)
		cfg.Predictor = predictor.NewClassifiedStride()
		return cfg
	}},
	{"oracle", func(w int) Config {
		cfg := DefaultConfig(w)
		cfg.OracleVP = true
		return cfg
	}},
	{"stride-penalty3", func(w int) Config {
		cfg := DefaultConfig(w)
		cfg.Predictor = predictor.NewStride()
		cfg.MispredictPenalty = 3
		return cfg
	}},
	{"lastvalue-nomem", func(w int) Config {
		cfg := DefaultConfig(w)
		cfg.Predictor = predictor.NewLastValue()
		cfg.IncludeMemoryDeps = false
		return cfg
	}},
}

// TestRunMatchesReference is the workload-sweep differential test: every
// workload at every paper width under every machine variant must match the
// cycle-stepped reference in results, per-instruction timing, tracer bytes
// and metrics.
func TestRunMatchesReference(t *testing.T) {
	n := 3_000
	if testing.Short() {
		n = 800
	}
	for _, name := range workload.Names() {
		recs := workload.MustTrace(name, 1, n)
		for _, w := range []int{1, 4, 8, 16, 32, 40} {
			for _, c := range referenceConfigs {
				matchReference(t, fmt.Sprintf("%s/w=%d/%s", name, w, c.name), recs,
					func() Config { return c.mk(w) })
			}
		}
	}
}

// caseHeader and caseRecord are the byte sizes of the fuzz encoding: a
// header picking the machine, then one fixed-size chunk per record.
const (
	caseHeader = 4
	caseRecord = 7
	caseMax    = 128 // records decoded at most
)

// decodeCase turns fuzz bytes into a small trace and a machine. Header
// bytes: fetch width, window size, misprediction penalty, and flags (bit 0
// memory dependences, bit 1 oracle VP, bits 2-3 predictor). Record bytes:
// PC index, opcode, rd, rs1, rs2, address index, value.
func decodeCase(data []byte) ([]trace.Rec, func() Config) {
	var h [caseHeader]byte
	copy(h[:], data)
	mk := func() Config {
		cfg := Config{
			FetchWidth:        1 + int(h[0]%16),
			WindowSize:        1 + int(h[1]%48),
			MispredictPenalty: int(h[2] % 8),
			IncludeMemoryDeps: h[3]&1 != 0,
			OracleVP:          h[3]&2 != 0,
		}
		switch h[3] >> 2 & 3 {
		case 1:
			cfg.Predictor = predictor.NewStride()
		case 2:
			cfg.Predictor = predictor.NewClassifiedStride()
		case 3:
			cfg.Predictor = predictor.NewLastValue()
		}
		return cfg
	}
	var recs []trace.Rec
	for i := caseHeader; i+caseRecord <= len(data) && len(recs) < caseMax; i += caseRecord {
		b := data[i : i+caseRecord]
		recs = append(recs, trace.Rec{
			Seq:  uint64(len(recs)),
			PC:   isa.PCOf(int(b[0])),
			Op:   isa.Opcode(int(b[1]) % isa.NumOpcodes),
			Rd:   isa.Reg(b[2] % 32),
			Rs1:  isa.Reg(b[3] % 32),
			Rs2:  isa.Reg(b[4] % 32),
			Addr: uint64(b[5]%16) * 8,
			Val:  uint64(b[6]),
		})
	}
	return recs, mk
}

// encodeCase is decodeCase's inverse for seeding: it keeps each record's
// opcode and registers and folds PC, address and value into a byte.
func encodeCase(h [caseHeader]byte, recs []trace.Rec) []byte {
	out := append([]byte(nil), h[:]...)
	for _, r := range recs {
		out = append(out, byte((r.PC-isa.TextBase)/isa.InstBytes), byte(r.Op),
			byte(r.Rd), byte(r.Rs1), byte(r.Rs2), byte(r.Addr/8), byte(r.Val))
	}
	return out
}

// randomTrace builds a dense-dependence trace over eight registers and a
// few memory words, so random cases exercise every dependence kind.
func randomTrace(rng *rand.Rand, n int) []trace.Rec {
	ops := []isa.Opcode{isa.ADD, isa.ADDI, isa.LI, isa.XOR, isa.LD, isa.SD, isa.BEQ, isa.JAL, isa.NOP}
	recs := make([]trace.Rec, n)
	for i := range recs {
		recs[i] = trace.Rec{
			Seq: uint64(i), PC: isa.PCOf(rng.Intn(24)), Op: ops[rng.Intn(len(ops))],
			Rd: isa.Reg(rng.Intn(8)), Rs1: isa.Reg(rng.Intn(8)), Rs2: isa.Reg(rng.Intn(8)),
			Addr: uint64(rng.Intn(4)) * 8, Val: uint64(rng.Intn(6)),
		}
	}
	return recs
}

// FuzzRunMatchesReference checks Run against the cycle-stepped reference
// on arbitrary small traces and machines: results, Observer triples,
// tracer bytes and metric snapshots must all match.
func FuzzRunMatchesReference(f *testing.F) {
	headers := [][caseHeader]byte{
		{3, 39, 0, 1 | 2},    // Table 3.2: width 4, window 40, oracle VP
		{0, 39, 0, 1},        // width 1, no VP
		{7, 39, 3, 1 | 1<<2}, // width 8, stride, penalty 3
		{15, 7, 1, 2 << 2},   // width 16, window 8, classified stride
		{5, 3, 5, 1 | 3<<2},  // tiny window, last value, penalty 5
		{7, 39, 0, 2 << 2},   // classified stride without memory deps
	}
	traces := [][]trace.Rec{
		fig32(), uselessTrace(), chainTrace(caseMax), memDepTrace(), noisyPairTrace(caseMax / 2),
	}
	rng := rand.New(rand.NewSource(1))
	for range 8 {
		traces = append(traces, randomTrace(rng, 64+rng.Intn(200)))
	}
	for _, recs := range traces {
		for _, h := range headers {
			f.Add(encodeCase(h, recs))
		}
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, mk := decodeCase(data)
		matchReference(t, "case", recs, mk)
	})
}
