// Package pipeline implements the paper's Section 5 realistic machine: a
// 40-wide decode/issue processor with a 40-entry instruction window, 40
// execution units, register renaming (no name dependencies), branch
// prediction with a 3-cycle misprediction penalty, and value prediction
// with a 1-cycle misprediction penalty where only the dependent
// instructions are invalidated and rescheduled.
//
// The machine is trace-driven: a fetch engine (internal/fetch) delivers
// correct-path fetch groups and flags mispredicted control transfers, whose
// redirect bubble stalls fetch until the branch resolves plus the penalty.
// Value predictions are obtained either directly from a predictor table or
// through the banked prediction network of internal/core, which may deny
// predictions on bank conflicts and expands merged duplicate-PC requests.
package pipeline

import (
	"fmt"

	"valuepred/internal/core"
	"valuepred/internal/fetch"
	"valuepred/internal/isa"
	"valuepred/internal/obs"
	"valuepred/internal/predictor"
	"valuepred/internal/trace"
)

// Config parameterises the machine.
type Config struct {
	// Width is the decode/issue/commit width (paper: 40).
	Width int
	// WindowSize is the instruction window; an instruction occupies a slot
	// from fetch to commit (paper: 40).
	WindowSize int
	// NumFUs bounds instructions executed per cycle (paper: 40).
	NumFUs int
	// BranchPenalty is the misprediction redirect bubble in cycles
	// (paper: 3): fetch resumes at the branch's execute cycle + penalty.
	// Must not be negative.
	BranchPenalty int
	// ValuePenalty is the extra reschedule delay, beyond the normal
	// one-cycle forwarding, for a consumer that speculated on a wrong
	// value. The paper's "1 cycle value misprediction penalty" is the
	// reschedule happening one cycle after the correct value is produced,
	// i.e. normal forwarding latency, so the default is 0; set 1+ to model
	// a costlier recovery (see the ablation benchmarks). Must not be
	// negative.
	ValuePenalty int
	// HoldUntilCommit makes an instruction occupy its window slot until
	// in-order commit (ROB semantics) instead of freeing it at execute
	// (scheduling-window semantics, the paper's Section 3/5 model and the
	// default). Kept as an ablation knob.
	HoldUntilCommit bool
	// Predictor enables direct value prediction when non-nil.
	Predictor predictor.Predictor
	// Network, when non-nil, routes value predictions through the banked
	// delivery network instead of Predictor (Section 4). Exactly one of
	// Predictor/Network may be set.
	Network *core.Network
	// IncludeMemoryDeps makes loads depend on the latest store to the
	// same address.
	IncludeMemoryDeps bool
	// LoadLatency, MulLatency and DivLatency are execution latencies in
	// cycles for loads, multiplies and divides/remainders (default 1, the
	// paper's unit-latency model). Functional units are pipelined: latency
	// delays the result, not unit reuse. Value prediction hides these
	// latencies for correctly predicted producers (see ablation.latency).
	LoadLatency int
	MulLatency  int
	DivLatency  int
	// Obs, when non-nil, receives per-cycle stage occupancy, stall causes
	// and value-prediction outcomes. Observability is strictly write-only:
	// nothing recorded here feeds back into the simulation, so results are
	// bit-identical with Obs set or nil, and a nil Obs costs the hot loop
	// only a nil-check.
	Obs *obs.Sink
}

// latencyOf returns the execution latency of an opcode under cfg.
func (cfg Config) latencyOf(op isa.Opcode) uint64 {
	lat := 1
	switch {
	case op.IsLoad():
		lat = cfg.LoadLatency
	case op == isa.MUL:
		lat = cfg.MulLatency
	case op == isa.DIV || op == isa.REM:
		lat = cfg.DivLatency
	}
	if lat < 1 {
		lat = 1
	}
	return uint64(lat)
}

// DefaultConfig returns the paper's Section 5 machine without value
// prediction.
func DefaultConfig() Config {
	return Config{
		Width: 40, WindowSize: 40, NumFUs: 40,
		BranchPenalty: 3, ValuePenalty: 0,
		IncludeMemoryDeps: true,
		LoadLatency:       1, MulLatency: 1, DivLatency: 1,
	}
}

// Result reports one simulation run.
type Result struct {
	Insts  uint64
	Cycles uint64
	// Value-prediction accounting, as in internal/ideal.
	Attempted uint64
	Correct   uint64
	Used      uint64
	// DeniedSlots counts value-producing instructions whose prediction was
	// withheld by the network's router (bank conflict, hint drop, or a
	// merged copy of a denied primary).
	DeniedSlots uint64
	// Fetch carries the engine's statistics (branch accuracy, trace-cache
	// hit rate).
	Fetch fetch.Stats
	// BranchStallCycles counts cycles fetch was blocked waiting for a
	// mispredicted control transfer to resolve (plus the redirect bubble).
	BranchStallCycles uint64
	// WindowFullCycles counts cycles fetch was blocked by a full window.
	WindowFullCycles uint64
	// OccupancySum accumulates the window occupancy each cycle; divide by
	// Cycles for the average (see AvgOccupancy).
	OccupancySum uint64
}

// AvgOccupancy returns the mean instruction-window occupancy.
func (r Result) AvgOccupancy() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.OccupancySum) / float64(r.Cycles)
}

// IPC returns instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Insts) / float64(r.Cycles)
}

// Useless returns correct predictions that decoupled no consumer.
func (r Result) Useless() uint64 { return r.Correct - r.Used }

// Speedup returns the relative IPC gain of r over base in percent.
func Speedup(base, r Result) float64 {
	if base.IPC() == 0 {
		return 0
	}
	return (r.IPC()/base.IPC() - 1) * 100
}

type producerInfo struct {
	execCycle  uint64
	resultAt   uint64 // cycle the value becomes forwardable (exec + latency)
	done       bool
	predicted  bool
	correct    bool
	usefulSeen bool
}

type entry struct {
	rec       trace.Rec
	earliest  uint64
	availAt   uint64
	executed  bool
	left      bool // removed from the window (recycling gate, see scratch.go)
	execCycle uint64
	prod      *producerInfo
	waitOn    []*producerInfo
	mispredOn []*producerInfo
	specOn    []*producerInfo
}

// addDep records one operand dependence on producer p (a method rather
// than a closure so ingest allocates nothing per instruction).
func (w *entry) addDep(p *producerInfo) {
	switch {
	case p == nil:
		return
	case p.done:
		if at := p.execCycle + 1; at > w.availAt {
			w.availAt = at
		}
	case p.predicted && p.correct:
		w.specOn = append(w.specOn, p)
	case p.predicted:
		w.mispredOn = append(w.mispredOn, p)
	default:
		w.waitOn = append(w.waitOn, p)
	}
}

func (w *entry) ready(cycle uint64) bool {
	return !w.executed && len(w.waitOn) == 0 && len(w.mispredOn) == 0 &&
		w.earliest <= cycle && w.availAt <= cycle
}

func (w *entry) resolve(valuePenalty uint64) {
	n := 0
	for _, p := range w.waitOn {
		if p.done {
			if p.resultAt > w.availAt {
				w.availAt = p.resultAt
			}
		} else {
			w.waitOn[n] = p
			n++
		}
	}
	w.waitOn = w.waitOn[:n]
	n = 0
	for _, p := range w.mispredOn {
		if p.done {
			if at := p.resultAt + valuePenalty; at > w.availAt {
				w.availAt = at
			}
		} else {
			w.mispredOn[n] = p
			n++
		}
	}
	w.mispredOn = w.mispredOn[:n]
}

// Run simulates the trace delivered by eng under cfg.
func Run(eng fetch.Engine, cfg Config) (Result, error) {
	if cfg.Width <= 0 || cfg.WindowSize <= 0 || cfg.NumFUs <= 0 ||
		cfg.BranchPenalty < 0 || cfg.ValuePenalty < 0 {
		return Result{}, fmt.Errorf("pipeline: invalid config %+v", cfg)
	}
	if cfg.Predictor != nil && cfg.Network != nil {
		return Result{}, fmt.Errorf("pipeline: set either Predictor or Network, not both")
	}
	var res Result
	// All per-run state comes out of a pooled scratch (scratch.go): window
	// entries, producer bookkeeping, the memory-producer map and the
	// network lookup buffers are reused across runs instead of being
	// reallocated per instruction.
	s := getScratch()
	defer putScratch(s)
	var regProd [32]*producerInfo
	// window holds entries from fetch to commit, in program order.
	window := s.window[:0]
	valuePenalty := uint64(cfg.ValuePenalty)

	o := cfg.Obs // nil when instrumentation is disabled
	if o != nil {
		fetch.Instrument(eng, o)
	}

	var stallOn *entry // mispredicted control transfer gating fetch
	var cycle uint64 = 1
	eof := false

	for {
		// Commit: with ROB semantics, retire in order, up to Width per
		// cycle, one cycle after execute.
		committed := 0
		if cfg.HoldUntilCommit {
			for committed < len(window) && committed < cfg.Width {
				head := window[committed]
				if !head.executed || head.execCycle >= cycle {
					break
				}
				committed++
			}
			if committed > 0 {
				// Retire by compacting toward the front so the window's
				// backing array (scratch-owned) never drifts; committed
				// entries recycle unless the fetch stage still consults
				// one as the stall gate.
				for _, w := range window[:committed] {
					w.left = true
					if w != stallOn {
						s.entries.release(w)
					}
				}
				n := copy(window, window[committed:])
				window = window[:n]
			}
		}

		// Execute: oldest-first, bounded by NumFUs. With scheduling-window
		// semantics an instruction leaves its slot when it executes.
		fus := 0
		n := 0
		for _, w := range window {
			if !w.executed {
				w.resolve(valuePenalty)
				if fus < cfg.NumFUs && w.ready(cycle) {
					w.executed = true
					w.execCycle = cycle
					w.prod.execCycle = cycle
					w.prod.resultAt = cycle + cfg.latencyOf(w.rec.Op)
					w.prod.done = true
					res.Insts++
					fus++
					for _, p := range w.specOn {
						// Useful iff the producer's value was not yet
						// forwardable when this consumer executed.
						if (!p.done || p.resultAt > cycle) && !p.usefulSeen {
							p.usefulSeen = true
							res.Used++
							if o != nil {
								o.VPUseful()
							}
						}
					}
					if !cfg.HoldUntilCommit {
						// Slot freed at execute; recycle unless the fetch
						// stage still consults this entry as the stall gate.
						w.left = true
						if w != stallOn {
							s.entries.release(w)
						}
						continue
					}
				}
			}
			window[n] = w
			n++
		}
		window = window[:n]

		res.OccupancySum += uint64(len(window))

		// Fetch: blocked while a mispredicted branch is unresolved.
		fetched := 0
		canFetch := !eof
		if stallOn != nil {
			if stallOn.executed && cycle >= stallOn.execCycle+uint64(cfg.BranchPenalty) {
				if stallOn.left {
					// The entry left the window while it was the stall
					// gate; it is finally unreferenced — recycle it.
					s.entries.release(stallOn)
				}
				stallOn = nil
			} else {
				canFetch = false
				if !eof {
					res.BranchStallCycles++
					if o != nil {
						o.StallBranch()
					}
				}
			}
		}
		if canFetch {
			space := cfg.WindowSize - len(window)
			if space > cfg.Width {
				space = cfg.Width
			}
			if space <= 0 {
				res.WindowFullCycles++
				if o != nil {
					o.StallWindow()
				}
			}
			if space > 0 {
				g, ok := eng.NextGroup(space)
				if !ok {
					eof = true
				} else {
					before := len(window)
					window = ingest(g.Recs, cycle, cfg, &res, regProd[:], s, window)
					fetched = len(window) - before
					if g.Mispredict && fetched > 0 {
						stallOn = window[len(window)-1]
					}
				}
			}
		}

		if o != nil {
			// With scheduling-window semantics an instruction leaves its slot
			// (and architecturally commits) at execute, so the commit-stage
			// count mirrors the execute count.
			if !cfg.HoldUntilCommit {
				committed = fus
			}
			o.Cycle(cycle, fetched, fus, committed, len(window))
		}

		if eof && len(window) == 0 {
			break
		}
		cycle++
		if cycle > 1<<40 {
			return Result{}, fmt.Errorf("pipeline: runaway simulation (deadlock?)")
		}
	}
	res.Cycles = cycle
	res.Fetch = eng.Stats()
	// Hand the (possibly grown) window backing store back to the scratch
	// so the next run reuses its capacity.
	s.window = window[:0]
	if o != nil {
		o.RunDone(res.Insts, res.Cycles, res.Correct, res.Used)
	}
	return res, nil
}

// ingest turns a fetch group into window entries appended to window: it
// performs the group's value-prediction lookups (directly or through the
// network), wires dependence edges and publishes producers. Entries and
// producer records come out of the run's scratch, so ingest allocates
// nothing per instruction on the steady-state path.
func ingest(recs []trace.Rec, cycle uint64, cfg Config, res *Result,
	regProd []*producerInfo, s *scratch, window []*entry) []*entry {

	memProd := s.memProd

	// Network mode performs all lookups for the group first (the banked
	// table is read once per cycle), then updates after wiring.
	var slots []core.Slot
	var slotIdx []int // entry index -> slot index, -1 for non-writers
	if cfg.Network != nil {
		pcs := s.pcs[:0]
		slotIdx = s.slotIdx[:0]
		for _, rec := range recs {
			si := -1
			if rec.WritesValue() {
				si = len(pcs)
				pcs = append(pcs, rec.PC)
			}
			slotIdx = append(slotIdx, si)
		}
		s.pcs, s.slotIdx = pcs, slotIdx
		slots = cfg.Network.ProcessGroup(pcs)
	}

	for i, rec := range recs {
		w := s.entries.alloc()
		w.rec, w.earliest = rec, cycle+2
		w.prod = s.producers.alloc()

		if rec.WritesValue() {
			switch {
			case cfg.Network != nil:
				slot := slots[slotIdx[i]]
				if slot.Denied {
					res.DeniedSlots++
					if cfg.Obs != nil {
						cfg.Obs.VPDenied()
					}
				}
				if slot.Valid {
					w.prod.predicted = true
					w.prod.correct = slot.Pred.Value == rec.Val
					res.Attempted++
					if w.prod.correct {
						res.Correct++
					}
					if cfg.Obs != nil {
						cfg.Obs.VPAttempt(w.prod.correct)
					}
				}
			case cfg.Predictor != nil:
				pr := cfg.Predictor.Lookup(rec.PC)
				if pr.Confident {
					w.prod.predicted = true
					w.prod.correct = pr.Value == rec.Val
					res.Attempted++
					if w.prod.correct {
						res.Correct++
					}
					if cfg.Obs != nil {
						cfg.Obs.VPAttempt(w.prod.correct)
					}
				}
				cfg.Predictor.Update(rec.PC, rec.Val)
			}
		}

		if rec.Op.ReadsRs1() && rec.Rs1 != 0 {
			w.addDep(regProd[rec.Rs1])
		}
		if rec.Op.ReadsRs2() && rec.Rs2 != 0 {
			w.addDep(regProd[rec.Rs2])
		}
		if cfg.IncludeMemoryDeps && rec.Op.IsLoad() {
			w.addDep(memProd[rec.Addr])
		}

		if rec.WritesValue() {
			regProd[rec.Rd] = w.prod
		}
		if cfg.IncludeMemoryDeps && rec.Op.IsStore() {
			memProd[rec.Addr] = w.prod
		}
		window = append(window, w)
	}

	// Network mode: speculative updates corrected with committed values.
	if cfg.Network != nil {
		for _, rec := range recs {
			if rec.WritesValue() {
				cfg.Network.Update(rec.PC, rec.Val)
			}
		}
	}
	return window
}
