// Package ideal implements the paper's Section 3 machine model: an ideal
// execution environment limited only by true-data dependencies, the
// instruction window size and an artificial fetch/issue width. Control
// dependencies, name dependencies and structural conflicts do not exist;
// every instruction has unit latency; the machine has a four-stage pipeline
// (Fetch, Decode/Issue, Execute, Commit) so the earliest execute cycle of
// an instruction is its fetch cycle plus two (Table 3.2).
//
// Value prediction follows the paper's protocol: the predictor is looked up
// at fetch and updated speculatively; a consumer whose producer's output
// was correctly predicted (and endorsed by the classifier) may execute
// before that producer does. A correct prediction is only *useful* when the
// consumer would otherwise have waited — the paper's central measurement.
package ideal

import (
	"fmt"

	"valuepred/internal/obs"
	"valuepred/internal/predictor"
	"valuepred/internal/trace"
)

// Config parameterises the ideal machine.
type Config struct {
	// FetchWidth is the fetch/issue limit in instructions per cycle
	// (the paper sweeps 4, 8, 16, 32, 40).
	FetchWidth int
	// WindowSize is the instruction window (paper: 40). An instruction
	// occupies a window slot from fetch until it executes.
	WindowSize int
	// Predictor enables value prediction when non-nil.
	Predictor predictor.Predictor
	// IncludeMemoryDeps makes a load depend on the most recent store to
	// the same address (the value can still be predicted away).
	IncludeMemoryDeps bool
	// MispredictPenalty is the extra delay, beyond normal producer-to-
	// consumer forwarding, suffered by a consumer that speculated on a
	// wrong value (Section 3: 0, instant reschedule). Must not be negative.
	MispredictPenalty int
	// OracleVP models the perfect value predictor of the Table 3.2
	// walk-through: every value-producing instruction is predicted
	// correctly. It overrides Predictor.
	OracleVP bool
	// Observer, when non-nil, is called once per instruction, in trace
	// order, with its sequence number, fetch cycle and execute cycle
	// (commit follows one cycle after execute).
	Observer func(seq, fetchCycle, execCycle uint64)
	// Obs, when non-nil, receives per-cycle stage occupancy and
	// value-prediction outcomes. Strictly write-only: results are
	// bit-identical with Obs set or nil, and a nil Obs costs the loop only
	// nil-checks.
	Obs *obs.Sink
}

// DefaultConfig returns the paper's Section 3 configuration at the given
// fetch width, without a predictor.
func DefaultConfig(width int) Config {
	return Config{FetchWidth: width, WindowSize: 40, IncludeMemoryDeps: true}
}

// Result reports the simulation outcome.
type Result struct {
	// Insts and Cycles give the committed instruction count and the total
	// cycles; IPC is their ratio.
	Insts  uint64
	Cycles uint64
	// Attempted counts confident predictions made at fetch; Correct those
	// matching the committed value. Used counts correct predictions that
	// decoupled at least one consumer from an unexecuted producer; Useless
	// is Correct - Used (correct but the consumers' operands were ready
	// anyway — the phenomenon of Section 3). Wrong = Attempted - Correct.
	Attempted uint64
	Correct   uint64
	Used      uint64
}

// IPC returns instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Insts) / float64(r.Cycles)
}

// Useless returns the number of correct-but-unneeded predictions.
func (r Result) Useless() uint64 { return r.Correct - r.Used }

// Wrong returns the number of consumed-or-not mispredictions.
func (r Result) Wrong() uint64 { return r.Attempted - r.Correct }

// Speedup returns the relative IPC gain of r over base in percent.
func Speedup(base, r Result) float64 {
	if base.IPC() == 0 {
		return 0
	}
	return (r.IPC()/base.IPC() - 1) * 100
}

// producer is the timing state of a register's latest writer.
type producer struct {
	exec      uint64 // execute cycle; 0 while the register was never written
	predicted bool   // confident prediction existed at fetch
	correct   bool   // ... and matched the actual value
	usefulAt  uint64 // earliest execute cycle of a decoupled consumer; 0 if none
}

// Run simulates the trace under cfg and returns the result.
//
// The machine has unlimited functional units and every producer precedes
// its consumers in trace order, so an instruction's execute cycle is fixed
// the moment it is fetched (DESIGN.md §7):
//
//	exec = max(fetch+2, exec_p+1 over unpredicted producers,
//	           exec_p+1+penalty over mispredicted producers)
//
// where only producers still in flight at fetch (exec_p > fetch) count; a
// correctly predicted producer imposes nothing, and is useful once some
// consumer executes no later than it does. Run therefore makes one pass
// over the trace; the window is the min-heap of in-flight execute cycles.
func Run(src trace.Source, cfg Config) (Result, error) {
	if cfg.FetchWidth <= 0 || cfg.WindowSize <= 0 || cfg.MispredictPenalty < 0 {
		return Result{}, fmt.Errorf("ideal: invalid config %+v", cfg)
	}
	var (
		res   Result
		regs  [32]producer
		slots int    // fetch slots used in cycle
		last  uint64 // latest execute cycle so far
		log   *cycleLog
	)
	cycle := uint64(1)                 // fetch cycle of the next instruction
	memExec := make(map[uint64]uint64) // address -> execute cycle of its last store
	window := make(execHeap, 0, cfg.WindowSize)
	penalty := uint64(cfg.MispredictPenalty)
	o := cfg.Obs // nil when instrumentation is disabled
	if o != nil {
		log = &cycleLog{next: 1}
	}
	for {
		rec, ok := src.Next()
		if !ok {
			break
		}
		// Fetch needs a free slot this cycle and a free window entry; an
		// entry frees in the cycle its instruction executes.
		for {
			for len(window) > 0 && window[0] <= cycle {
				window.pop()
			}
			if slots < cfg.FetchWidth && len(window) < cfg.WindowSize {
				break
			}
			if len(window) == cfg.WindowSize {
				cycle = window[0]
			} else {
				cycle++
			}
			slots = 0
		}
		if log != nil {
			log.replay(o, cycle)
			log.at(cycle).fetched++
		}

		var p producer
		if rec.WritesValue() {
			switch {
			case cfg.OracleVP:
				p.predicted, p.correct = true, true
			case cfg.Predictor != nil:
				pr := cfg.Predictor.Lookup(rec.PC)
				p.predicted, p.correct = pr.Confident, pr.Confident && pr.Value == rec.Val
				cfg.Predictor.Update(rec.PC, rec.Val)
			}
			if p.predicted {
				res.Attempted++
				if p.correct {
					res.Correct++
				}
				if log != nil && p.correct {
					log.at(cycle).correct++
				} else if log != nil {
					log.at(cycle).wrong++
				}
			}
		}

		// Operands. r0 is never written, so its state never constrains.
		exec := cycle + 2
		var srcs [2]*producer
		if rec.Op.ReadsRs1() {
			srcs[0] = &regs[rec.Rs1]
		}
		if rec.Op.ReadsRs2() {
			srcs[1] = &regs[rec.Rs2]
		}
		for _, q := range srcs {
			switch {
			case q == nil || q.exec <= cycle: // executed before this fetch
			case q.predicted && q.correct: // speculated past
			case q.predicted:
				exec = max(exec, q.exec+1+penalty)
			default:
				exec = max(exec, q.exec+1)
			}
		}
		if cfg.IncludeMemoryDeps && rec.Op.IsLoad() {
			if e := memExec[rec.Addr]; e > cycle {
				exec = max(exec, e+1)
			}
		}
		// A correct prediction is useful iff this consumer executes no
		// later than its producer; it counts once, at the earliest such
		// consumer's execute cycle.
		for _, q := range srcs {
			if q == nil || q.exec <= cycle || !q.correct || exec > q.exec ||
				(q.usefulAt != 0 && q.usefulAt <= exec) {
				continue
			}
			if q.usefulAt == 0 {
				res.Used++
			} else if log != nil {
				log.at(q.usefulAt).useful--
			}
			q.usefulAt = exec
			if log != nil {
				log.at(exec).useful++
			}
		}

		if rec.WritesValue() {
			p.exec = exec
			regs[rec.Rd] = p
		}
		if cfg.IncludeMemoryDeps && rec.Op.IsStore() {
			memExec[rec.Addr] = exec
		}
		window.push(exec)
		slots++
		last = max(last, exec)
		res.Insts++
		if cfg.Observer != nil {
			cfg.Observer(rec.Seq, cycle, exec)
		}
		if log != nil {
			log.at(exec).executed++
		}
	}
	res.Cycles = max(last, 1)
	if o != nil {
		log.replay(o, res.Cycles+1)
		o.RunDone(res.Insts, res.Cycles, res.Correct, res.Used)
	}
	return res, nil
}

// execHeap is a min-heap of the execute cycles of in-flight instructions:
// its length is the window occupancy, its root the next cycle that frees
// an entry.
type execHeap []uint64

func (h *execHeap) push(x uint64) {
	s := append(*h, x)
	for i := len(s) - 1; i > 0; {
		up := (i - 1) / 2
		if s[up] <= s[i] {
			break
		}
		s[up], s[i] = s[i], s[up]
		i = up
	}
	*h = s
}

func (h *execHeap) pop() {
	s := *h
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && s[c+1] < s[c] {
			c++
		}
		if s[i] <= s[c] {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	*h = s
}

// cycleCounts are the Obs events of one cycle.
type cycleCounts struct{ fetched, executed, correct, wrong, useful int }

// cycleLog buffers per-cycle Obs events. Run learns an instruction's
// events at fetch, ahead of the cycles they belong to; a cycle is final
// once the fetch cycle has passed it, because everything fetched later
// executes at least two cycles after its own fetch.
type cycleLog struct {
	ring   []cycleCounts // cycle c lives at ring[c%len(ring)]
	next   uint64        // first cycle not yet replayed
	window int           // occupancy at the end of cycle next-1
}

// at returns the counts of cycle c >= l.next, growing the ring to reach it.
func (l *cycleLog) at(c uint64) *cycleCounts {
	if n := uint64(len(l.ring)); c-l.next >= n {
		size := max(2*n, 64)
		for size <= c-l.next {
			size *= 2
		}
		ring := make([]cycleCounts, size)
		for x := l.next; x < l.next+n; x++ {
			ring[x%size] = l.ring[x%n]
		}
		l.ring = ring
	}
	return &l.ring[c%uint64(len(l.ring))]
}

// replay emits every cycle before end in the order the machine raises
// them: useful predictions (execute phase), prediction attempts (fetch
// phase), then the cycle's stage counts.
func (l *cycleLog) replay(o *obs.Sink, end uint64) {
	for ; l.next < end; l.next++ {
		k := l.at(l.next)
		for range k.useful {
			o.VPUseful()
		}
		for range k.correct {
			o.VPAttempt(true)
		}
		for range k.wrong {
			o.VPAttempt(false)
		}
		// The ideal machine commits one cycle after execute; the commit
		// count is reported as the execute count for display purposes.
		l.window += k.fetched - k.executed
		o.Cycle(l.next, k.fetched, k.executed, k.executed, l.window)
		*k = cycleCounts{}
	}
}
