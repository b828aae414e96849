package ideal

import (
	"testing"

	"valuepred/internal/isa"
	"valuepred/internal/predictor"
	"valuepred/internal/trace"
	"valuepred/internal/workload"
)

// fig32 builds the Figure 3.2 example: eight instructions with arcs
// 1→2(1), 2→4(2), 1→5(4), 3→7(4), 5→6(1), 7→8(1).
func fig32() []trace.Rec {
	mk := func(seq uint64, rd, rs1 isa.Reg) trace.Rec {
		op := isa.ADDI
		if rs1 == 0 {
			op = isa.LI
		}
		return trace.Rec{Seq: seq, PC: isa.PCOf(int(seq)), Op: op, Rd: rd, Rs1: rs1, Val: seq + 1}
	}
	return []trace.Rec{
		mk(0, isa.T0, 0),
		mk(1, isa.T1, isa.T0),
		mk(2, isa.T2, 0),
		mk(3, isa.T3, isa.T1),
		mk(4, isa.T4, isa.T0),
		mk(5, isa.T5, isa.T4),
		mk(6, isa.T6, isa.T2),
		mk(7, isa.S0, isa.T6),
	}
}

// uselessTrace is a producer at seq 0 and its consumer at seq 4 (DID 4),
// with filler in between.
func uselessTrace() []trace.Rec {
	recs := []trace.Rec{{Seq: 0, PC: 0x1000, Op: isa.LI, Rd: isa.T0, Val: 7}}
	for i := 1; i <= 3; i++ {
		recs = append(recs, trace.Rec{Seq: uint64(i), PC: isa.PCOf(i), Op: isa.LI, Rd: isa.T1, Val: 1})
	}
	return append(recs, trace.Rec{Seq: 4, PC: 0x2000, Op: isa.ADDI, Rd: isa.T2, Rs1: isa.T0, Val: 8})
}

// chainTrace is a serial chain of n dependent, perfectly strided adds.
func chainTrace(n int) []trace.Rec {
	recs := make([]trace.Rec, n)
	for i := range recs {
		recs[i] = trace.Rec{Seq: uint64(i), PC: isa.PCOf(i % 8), Op: isa.ADDI,
			Rd: isa.T0, Rs1: isa.T0, Val: uint64(i)}
	}
	return recs
}

// memDepTrace is store (value from a 10-deep chain) -> load of the same
// address; without VP the load waits for the store.
func memDepTrace() []trace.Rec {
	recs := chainTrace(10)
	for i := range recs {
		recs[i].PC = isa.PCOf(i)
	}
	return append(recs,
		trace.Rec{Seq: 10, PC: isa.PCOf(10), Op: isa.SD, Rs1: isa.SP, Rs2: isa.T0, Addr: 8, Val: 9},
		trace.Rec{Seq: 11, PC: isa.PCOf(11), Op: isa.LD, Rd: isa.T1, Rs1: isa.SP, Addr: 8, Val: 9},
	)
}

// noisyPairTrace is n pairs of a pseudo-random chain value and a consumer
// of it: a stride predictor is always confident and mostly wrong on it.
func noisyPairTrace(n int) []trace.Rec {
	recs := make([]trace.Rec, 0, 2*n)
	noise := uint64(12345)
	for i := 0; i < n; i++ {
		noise = noise*6364136223846793005 + 1442695040888963407
		recs = append(recs,
			trace.Rec{Seq: uint64(2 * i), PC: 0x1000, Op: isa.XOR, Rd: isa.T0, Rs1: isa.T0, Val: noise},
			trace.Rec{Seq: uint64(2*i + 1), PC: 0x1004, Op: isa.ADDI, Rd: isa.T1, Rs1: isa.T0, Val: noise + 1},
		)
	}
	return recs
}

// TestTable32Example verifies the paper's pipeline walk-through: on a
// 4-wide machine with a perfect value predictor, instructions 1-4 execute
// in cycle 3 and instructions 5-8 in cycle 4.
func TestTable32Example(t *testing.T) {
	exec := make(map[uint64]uint64)
	cfg := DefaultConfig(4)
	cfg.OracleVP = true
	cfg.Observer = func(seq, fetch, ex uint64) { exec[seq] = ex }
	res, err := Run(trace.NewSliceSource(fig32()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Insts != 8 {
		t.Fatalf("insts = %d", res.Insts)
	}
	for seq := uint64(0); seq < 4; seq++ {
		if exec[seq] != 3 {
			t.Errorf("inst %d executed at cycle %d, want 3", seq+1, exec[seq])
		}
	}
	for seq := uint64(4); seq < 8; seq++ {
		if exec[seq] != 4 {
			t.Errorf("inst %d executed at cycle %d, want 4", seq+1, exec[seq])
		}
	}
}

// TestTable32WithoutVP: without value prediction, instructions 6 and 8
// must wait one extra cycle for 5 and 7.
func TestTable32WithoutVP(t *testing.T) {
	exec := make(map[uint64]uint64)
	cfg := DefaultConfig(4)
	cfg.Observer = func(seq, fetch, ex uint64) { exec[seq] = ex }
	if _, err := Run(trace.NewSliceSource(fig32()), cfg); err != nil {
		t.Fatal(err)
	}
	// 2 depends on 1 (same fetch group): executes at 4; 4 depends on 2: 5.
	want := map[uint64]uint64{0: 3, 1: 4, 2: 3, 3: 5, 4: 4, 5: 5, 6: 4, 7: 5}
	for seq, w := range want {
		if exec[seq] != w {
			t.Errorf("inst %d executed at %d, want %d", seq+1, exec[seq], w)
		}
	}
}

// TestUselessPredictionAccounting: with fetch width 1, a DID-4 dependence
// is resolved by fetch delay, so a correct prediction must be counted
// useless; with width 8 the same prediction becomes useful.
func TestUselessPredictionAccounting(t *testing.T) {
	recs := uselessTrace()
	run := func(width int) Result {
		cfg := DefaultConfig(width)
		cfg.OracleVP = true
		res, err := Run(trace.NewSliceSource(recs), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	narrow := run(1)
	if narrow.Used != 0 {
		t.Errorf("width 1: %d used predictions, want 0 (operand ready anyway)", narrow.Used)
	}
	if narrow.Useless() != narrow.Correct {
		t.Errorf("width 1: useless = %d, correct = %d", narrow.Useless(), narrow.Correct)
	}
	wide := run(8)
	if wide.Used == 0 {
		t.Error("width 8: prediction of t0 should have been useful")
	}
}

func TestWindowLimitsFetch(t *testing.T) {
	// A long serial chain: with window W the machine can hold at most W
	// unexecuted instructions, and the chain executes one per cycle, so
	// IPC ~= 1 regardless of fetch width.
	recs := chainTrace(2000)
	cfg := DefaultConfig(40)
	res, err := Run(trace.NewSliceSource(recs), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ipc := res.IPC(); ipc > 1.1 {
		t.Errorf("serial chain IPC = %.2f, want ~1", ipc)
	}
	// With value prediction the chain is fully parallel: IPC ~= width
	// (window permitting).
	cfg.Predictor = predictor.NewClassifiedStride()
	vp, err := Run(trace.NewSliceSource(recs), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if vp.IPC() < 10 {
		t.Errorf("predicted chain IPC = %.2f, want >> 1", vp.IPC())
	}
}

func TestSpeedupMonotoneInWidth(t *testing.T) {
	recs := workload.MustTrace("vortex", 1, 40_000)
	var prev float64 = -1
	for _, w := range []int{4, 8, 16, 32} {
		base, err := Run(trace.NewSliceSource(recs), DefaultConfig(w))
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(w)
		cfg.Predictor = predictor.NewClassifiedStride()
		vp, err := Run(trace.NewSliceSource(recs), cfg)
		if err != nil {
			t.Fatal(err)
		}
		s := Speedup(base, vp)
		if s < prev-2 { // allow small noise
			t.Errorf("speedup at width %d = %.1f%% dropped below %.1f%%", w, s, prev)
		}
		if s > prev {
			prev = s
		}
	}
	if prev < 20 {
		t.Errorf("vortex speedup at width 32 = %.1f%%, expected substantial", prev)
	}
}

func TestMemoryDependencyEnforced(t *testing.T) {
	recs := memDepTrace()
	cfg := DefaultConfig(40)
	withMem, err := Run(trace.NewSliceSource(recs), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.IncludeMemoryDeps = false
	noMem, err := Run(trace.NewSliceSource(recs), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if withMem.Cycles <= noMem.Cycles {
		t.Errorf("memory dependence had no timing effect: %d vs %d cycles",
			withMem.Cycles, noMem.Cycles)
	}
}

func TestMispredictPenalty(t *testing.T) {
	// A consumer of a hard-to-predict chain: penalties should increase
	// cycles when the classifier consumes wrong values. Use a predictor
	// without classification so mispredictions are consumed.
	recs := noisyPairTrace(200)
	run := func(penalty int) uint64 {
		cfg := DefaultConfig(8)
		cfg.Predictor = predictor.NewStride() // always confident, mostly wrong
		cfg.MispredictPenalty = penalty
		res, err := Run(trace.NewSliceSource(recs), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	if run(3) <= run(0) {
		t.Error("misprediction penalty had no effect")
	}
}

func TestInvalidConfig(t *testing.T) {
	negPenalty := DefaultConfig(16)
	negPenalty.Predictor = predictor.NewStride()
	negPenalty.MispredictPenalty = -1
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"zero config", Config{}},
		{"zero window", Config{FetchWidth: 4}},
		// A negative penalty used to wrap and make a consumed misprediction
		// cost less than no penalty at all.
		{"negative penalty", negPenalty},
	} {
		if _, err := Run(trace.NewSliceSource(workload.MustTrace("gcc", 1, 200)), c.cfg); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

func TestEmptyTrace(t *testing.T) {
	res, err := Run(trace.NewSliceSource(nil), DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Insts != 0 {
		t.Errorf("insts = %d", res.Insts)
	}
	if res.IPC() != 0 {
		t.Error("IPC of empty run must be 0")
	}
}
