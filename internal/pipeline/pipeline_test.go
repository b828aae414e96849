package pipeline

import (
	"testing"

	"valuepred/internal/btb"
	"valuepred/internal/core"
	"valuepred/internal/fetch"
	"valuepred/internal/ideal"
	"valuepred/internal/predictor"
	"valuepred/internal/trace"
	"valuepred/internal/workload"
)

func TestInvalidConfigs(t *testing.T) {
	recs := workload.MustTrace("compress95", 1, 1000)
	for _, c := range []struct {
		name string
		edit func(*Config)
	}{
		{"zero config", func(cfg *Config) { *cfg = Config{} }},
		{"both Predictor and Network", func(cfg *Config) {
			cfg.Predictor = predictor.NewStride()
			cfg.Network = core.MustNew(core.DefaultConfig())
		}},
		// A negative penalty used to wrap to a huge unsigned delay, or, added
		// to a cycle, to a shortcut that made mispredictions cheaper than none.
		{"negative ValuePenalty", func(cfg *Config) {
			cfg.Predictor = predictor.NewStride()
			cfg.ValuePenalty = -1
		}},
		{"negative BranchPenalty", func(cfg *Config) { cfg.BranchPenalty = -1 }},
	} {
		cfg := DefaultConfig()
		c.edit(&cfg)
		if _, err := Run(fetch.NewSequential(recs, btb.NewPerfect(), -1), cfg); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

func TestAllInstructionsRetire(t *testing.T) {
	recs := workload.MustTrace("gcc", 1, 20_000)
	for _, n := range []int{1, 4, -1} {
		res, err := Run(fetch.NewSequential(recs, btb.NewPerfect(), n), DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if res.Insts != uint64(len(recs)) {
			t.Errorf("n=%d: retired %d of %d", n, res.Insts, len(recs))
		}
		if res.IPC() <= 0 || res.IPC() > 40 {
			t.Errorf("n=%d: IPC = %f out of range", n, res.IPC())
		}
	}
}

// TestVPNeverHurtsWithDefaultPenalty: with the default reschedule model a
// consumed misprediction costs exactly the normal dependence wait, so value
// prediction can only reduce cycles.
func TestVPNeverHurtsWithDefaultPenalty(t *testing.T) {
	for _, name := range workload.Names() {
		recs := workload.MustTrace(name, 1, 25_000)
		base, err := Run(fetch.NewSequential(recs, btb.NewPerfect(), 4), DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Predictor = predictor.NewClassifiedStride()
		vp, err := Run(fetch.NewSequential(recs, btb.NewPerfect(), 4), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if vp.Cycles > base.Cycles {
			t.Errorf("%s: VP increased cycles %d -> %d", name, base.Cycles, vp.Cycles)
		}
	}
}

// TestFetchBandwidthMonotone: raising the taken-branch limit can only help
// the baseline machine.
func TestFetchBandwidthMonotone(t *testing.T) {
	recs := workload.MustTrace("vortex", 1, 30_000)
	var prev float64
	for _, n := range []int{1, 2, 4, -1} {
		res, err := Run(fetch.NewSequential(recs, btb.NewPerfect(), n), DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if res.IPC() < prev-0.01 {
			t.Errorf("IPC at n=%d (%.3f) below previous (%.3f)", n, res.IPC(), prev)
		}
		if res.IPC() > prev {
			prev = res.IPC()
		}
	}
}

// TestBranchPenaltyCosts: a larger redirect bubble must not speed the
// machine up.
func TestBranchPenaltyCosts(t *testing.T) {
	recs := workload.MustTrace("go", 1, 30_000)
	run := func(pen int) uint64 {
		cfg := DefaultConfig()
		cfg.BranchPenalty = pen
		res, err := Run(fetch.NewSequential(recs, btb.NewTwoLevel(btb.DefaultTwoLevelConfig()), 4), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	c0, c3, c10 := run(0), run(3), run(10)
	if !(c0 <= c3 && c3 <= c10) {
		t.Errorf("cycles not monotone in branch penalty: %d, %d, %d", c0, c3, c10)
	}
	if c10 == c0 {
		t.Error("branch penalty has no effect on a mispredicting workload")
	}
}

// TestValuePenaltyCosts: charging more for consumed mispredictions cannot
// reduce cycles.
func TestValuePenaltyCosts(t *testing.T) {
	recs := workload.MustTrace("go", 1, 30_000)
	run := func(pen int) uint64 {
		cfg := DefaultConfig()
		cfg.ValuePenalty = pen
		cfg.Predictor = predictor.NewStride() // unclassified: consumes wrong values
		res, err := Run(fetch.NewSequential(recs, btb.NewPerfect(), -1), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	if run(4) < run(0) {
		t.Error("value penalty reduced cycles")
	}
}

// TestBTBQualityMatters: the perfect branch predictor must beat the cold
// 2-level BTB on a branchy workload.
func TestBTBQualityMatters(t *testing.T) {
	recs := workload.MustTrace("li", 1, 30_000)
	perfect, err := Run(fetch.NewSequential(recs, btb.NewPerfect(), 4), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	real, err := Run(fetch.NewSequential(recs, btb.NewTwoLevel(btb.DefaultTwoLevelConfig()), 4), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if real.IPC() >= perfect.IPC() {
		t.Errorf("2-level BTB (%.2f IPC) not worse than perfect (%.2f IPC)",
			real.IPC(), perfect.IPC())
	}
	if real.Fetch.BranchAccuracy() >= 1 {
		t.Error("2-level BTB reported perfect accuracy")
	}
}

// TestWindowSemantics: ROB-style windows (held to commit) cannot beat
// scheduling windows of the same size.
func TestWindowSemantics(t *testing.T) {
	recs := workload.MustTrace("m88ksim", 1, 30_000)
	sched, err := Run(fetch.NewSequential(recs, btb.NewPerfect(), -1), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.HoldUntilCommit = true
	rob, err := Run(fetch.NewSequential(recs, btb.NewPerfect(), -1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rob.IPC() > sched.IPC()+0.01 {
		t.Errorf("ROB window IPC %.2f exceeds scheduling window %.2f", rob.IPC(), sched.IPC())
	}
	if rob.Insts != sched.Insts {
		t.Errorf("instruction counts differ: %d vs %d", rob.Insts, sched.Insts)
	}
}

// TestNetworkMatchesDirectWhenUnconstrained: with many banks and ports the
// network's speedup must be close to the direct predictor's (the remaining
// difference is the group-at-once lookup semantics).
func TestNetworkMatchesDirectWhenUnconstrained(t *testing.T) {
	recs := workload.MustTrace("vortex", 1, 40_000)
	mk := func() fetch.Engine {
		return fetch.NewTraceCache(recs, btb.NewPerfect(), fetch.DefaultTCConfig())
	}
	base, err := Run(mk(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	direct := DefaultConfig()
	direct.Predictor = predictor.NewClassifiedStride()
	dres, err := Run(mk(), direct)
	if err != nil {
		t.Fatal(err)
	}
	netCfg := core.DefaultConfig()
	netCfg.Banks = 1024
	netCfg.PortsPerBank = 64
	netted := DefaultConfig()
	netted.Network = core.MustNew(netCfg)
	nres, err := Run(mk(), netted)
	if err != nil {
		t.Fatal(err)
	}
	ds, ns := Speedup(base, dres), Speedup(base, nres)
	if diff := ds - ns; diff > 15 || diff < -15 {
		t.Errorf("network speedup %.1f%% far from direct %.1f%%", ns, ds)
	}
	if nres.Insts != dres.Insts {
		t.Error("retired instruction counts differ")
	}
}

// TestNetworkDenialsReduceSpeedup: a single-banked network must not beat a
// plentiful one.
func TestNetworkDenialsReduceSpeedup(t *testing.T) {
	recs := workload.MustTrace("compress95", 1, 40_000)
	mk := func() fetch.Engine {
		return fetch.NewTraceCache(recs, btb.NewPerfect(), fetch.DefaultTCConfig())
	}
	base, err := Run(mk(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	speedupWith := func(banks int) (float64, core.Stats) {
		netCfg := core.DefaultConfig()
		netCfg.Banks = banks
		net := core.MustNew(netCfg)
		cfg := DefaultConfig()
		cfg.Network = net
		res, err := Run(mk(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return Speedup(base, res), net.Stats()
	}
	s1, st1 := speedupWith(1)
	s16, st16 := speedupWith(16)
	if s1 > s16+1 {
		t.Errorf("1 bank (%.1f%%) beats 16 banks (%.1f%%)", s1, s16)
	}
	if st1.DenyRate() <= st16.DenyRate() {
		t.Errorf("deny rate did not fall with banks: %.2f vs %.2f",
			st1.DenyRate(), st16.DenyRate())
	}
}

// TestUsefulnessAccounting sanity-checks the Attempted/Correct/Used
// invariants.
func TestUsefulnessAccounting(t *testing.T) {
	recs := workload.MustTrace("m88ksim", 1, 30_000)
	cfg := DefaultConfig()
	cfg.Predictor = predictor.NewClassifiedStride()
	res, err := Run(fetch.NewSequential(recs, btb.NewPerfect(), -1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct > res.Attempted {
		t.Error("Correct > Attempted")
	}
	if res.Used > res.Correct {
		t.Error("Used > Correct")
	}
	if res.Used == 0 {
		t.Error("no useful predictions on m88ksim at unlimited fetch")
	}
	if res.Useless() != res.Correct-res.Used {
		t.Error("Useless identity broken")
	}
}

// TestStallAccounting checks the front-end stall statistics.
func TestStallAccounting(t *testing.T) {
	recs := workload.MustTrace("gcc", 1, 30_000)
	res, err := Run(fetch.NewSequential(recs, btb.NewTwoLevel(btb.DefaultTwoLevelConfig()), 4), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.BranchStallCycles == 0 {
		t.Error("mispredicting run reported zero branch-stall cycles")
	}
	if res.BranchStallCycles+res.WindowFullCycles > res.Cycles {
		t.Error("stall cycles exceed total cycles")
	}
	if occ := res.AvgOccupancy(); occ <= 0 || occ > 40 {
		t.Errorf("average occupancy = %.1f out of range", occ)
	}
	// A perfect-BTB run must have no branch stalls.
	clean, err := Run(fetch.NewSequential(recs, btb.NewPerfect(), 4), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if clean.BranchStallCycles != 0 {
		t.Errorf("perfect BTB run has %d branch-stall cycles", clean.BranchStallCycles)
	}
}

// TestConvergesToIdealModel is a cross-model validation: with a perfect
// BTB, unlimited taken branches and the same predictor, the Section 5
// machine reduces to the Section 3 ideal machine at width 40 (same window,
// same dependence rules; 40 FUs never bind because the window holds only
// 40 instructions). IPCs must agree tightly.
func TestConvergesToIdealModel(t *testing.T) {
	for _, name := range []string{"compress95", "m88ksim", "li"} {
		recs := workload.MustTrace(name, 1, 40_000)
		pres, err := Run(fetch.NewSequential(recs, btb.NewPerfect(), -1), DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		ires, err := ideal.Run(trace.NewSliceSource(recs), ideal.DefaultConfig(40))
		if err != nil {
			t.Fatal(err)
		}
		ratio := pres.IPC() / ires.IPC()
		if ratio < 0.97 || ratio > 1.03 {
			t.Errorf("%s: pipeline IPC %.3f vs ideal IPC %.3f (ratio %.3f)",
				name, pres.IPC(), ires.IPC(), ratio)
		}
		// And with value prediction.
		cfgP := DefaultConfig()
		cfgP.Predictor = predictor.NewClassifiedStride()
		pvp, err := Run(fetch.NewSequential(recs, btb.NewPerfect(), -1), cfgP)
		if err != nil {
			t.Fatal(err)
		}
		cfgI := ideal.DefaultConfig(40)
		cfgI.Predictor = predictor.NewClassifiedStride()
		ivp, err := ideal.Run(trace.NewSliceSource(recs), cfgI)
		if err != nil {
			t.Fatal(err)
		}
		ratio = pvp.IPC() / ivp.IPC()
		if ratio < 0.97 || ratio > 1.03 {
			t.Errorf("%s (VP): pipeline IPC %.3f vs ideal IPC %.3f (ratio %.3f)",
				name, pvp.IPC(), ivp.IPC(), ratio)
		}
	}
}

// TestLoadLatency: non-unit load latency must reduce baseline IPC; value
// prediction must still deliver a substantial gain (consumers of correctly
// predicted loads decouple from the memory pipeline).
func TestLoadLatency(t *testing.T) {
	recs := workload.MustTrace("vortex", 1, 60_000)
	run := func(lat int, vp bool) Result {
		cfg := DefaultConfig()
		cfg.LoadLatency = lat
		if vp {
			cfg.Predictor = predictor.NewClassifiedStride()
		}
		res, err := Run(fetch.NewSequential(recs, btb.NewPerfect(), 4), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base1, base4 := run(1, false), run(4, false)
	if base4.IPC() >= base1.IPC() {
		t.Errorf("4-cycle loads did not slow the baseline: %.2f vs %.2f",
			base4.IPC(), base1.IPC())
	}
	s4 := Speedup(base4, run(4, true))
	if s4 < 20 {
		t.Errorf("VP speedup at lat=4 = %.1f%%; prediction should still decouple load consumers", s4)
	}
	// Absolute cycle savings stay in the same ballpark across latencies:
	// with a 40-entry window the savings are bounded by fetch/window
	// pressure, not by the dependence latency — the paper's bandwidth
	// lesson resurfacing. Guard against either collapse or runaway.
	vp1, vp4 := run(1, true), run(4, true)
	saved1 := float64(base1.Cycles - vp1.Cycles)
	saved4 := float64(base4.Cycles - vp4.Cycles)
	if saved4 < 0.5*saved1 || saved4 > 2*saved1 {
		t.Errorf("cycle savings moved implausibly with latency: %.0f vs %.0f", saved4, saved1)
	}
}

// TestDivLatency: divide-heavy code (ijpeg quantisation) slows with a
// non-unit divide latency.
func TestDivLatency(t *testing.T) {
	recs := workload.MustTrace("ijpeg", 1, 60_000)
	run := func(lat int) float64 {
		cfg := DefaultConfig()
		cfg.DivLatency = lat
		res, err := Run(fetch.NewSequential(recs, btb.NewPerfect(), 4), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.IPC()
	}
	if run(8) >= run(1) {
		t.Error("divide latency had no effect on ijpeg")
	}
}
