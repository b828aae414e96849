package ideal

import (
	"fmt"

	"valuepred/internal/trace"
)

// runReference is the cycle-stepped ideal machine that Run replaced. It
// steps the clock one cycle at a time, keeps every in-flight instruction as
// a window entry with explicit dependence lists, and rescans those lists
// each cycle. It is slow and allocates per instruction, but it follows the
// machine's definition literally, which makes it the oracle the closed-form
// Run is checked against (TestRunMatchesReference, FuzzRunMatchesReference).
func runReference(src trace.Source, cfg Config) (Result, error) {
	if cfg.FetchWidth <= 0 || cfg.WindowSize <= 0 || cfg.MispredictPenalty < 0 {
		return Result{}, fmt.Errorf("ideal: invalid config %+v", cfg)
	}
	var res Result
	var regProd [32]*refProducer
	memProd := make(map[uint64]*refProducer)
	var window []*refEntry
	penalty := uint64(cfg.MispredictPenalty)

	o := cfg.Obs

	var cycle uint64 = 1
	eof := false
	for {
		// Execute phase: every ready entry executes this cycle (unlimited
		// functional units). Entries are in fetch order, so a producer
		// executing this cycle is marked done before later consumers in
		// the same sweep — a same-cycle consumer counts as decoupled.
		executed := 0
		n := 0
		for _, w := range window {
			w.resolve(penalty)
			if w.ready(cycle) {
				w.prod.execCycle = cycle
				w.prod.done = true
				res.Insts++
				executed++
				if cfg.Observer != nil {
					cfg.Observer(w.seq, w.fetchedAt, cycle)
				}
				for _, p := range w.specOn {
					// Useful iff the producer had not finished strictly
					// before this consumer executed.
					if (!p.done || p.execCycle >= cycle) && !p.usefulSeen {
						p.usefulSeen = true
						res.Used++
						if o != nil {
							o.VPUseful()
						}
					}
				}
			} else {
				window[n] = w
				n++
			}
		}
		window = window[:n]

		// Fetch phase: up to FetchWidth instructions while the window has
		// room; they may execute two cycles later.
		fetched := 0
		for f := 0; f < cfg.FetchWidth && len(window) < cfg.WindowSize && !eof; f++ {
			rec, ok := src.Next()
			if !ok {
				eof = true
				break
			}
			w := &refEntry{seq: rec.Seq, fetchedAt: cycle, earliest: cycle + 2, prod: &refProducer{}}
			fetched++

			if cfg.OracleVP && rec.WritesValue() {
				w.prod.predicted = true
				w.prod.correct = true
				res.Attempted++
				res.Correct++
				if o != nil {
					o.VPAttempt(true)
				}
			} else if cfg.Predictor != nil && rec.WritesValue() {
				pr := cfg.Predictor.Lookup(rec.PC)
				if pr.Confident {
					w.prod.predicted = true
					w.prod.correct = pr.Value == rec.Val
					res.Attempted++
					if w.prod.correct {
						res.Correct++
					}
					if o != nil {
						o.VPAttempt(w.prod.correct)
					}
				}
				cfg.Predictor.Update(rec.PC, rec.Val)
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

		if o != nil {
			o.Cycle(cycle, fetched, executed, executed, len(window))
		}

		if eof && len(window) == 0 {
			break
		}
		cycle++
	}
	res.Cycles = cycle
	if o != nil {
		o.RunDone(res.Insts, res.Cycles, res.Correct, res.Used)
	}
	return res, nil
}

// refProducer is one dynamic instruction viewed as a producer.
type refProducer struct {
	execCycle  uint64
	done       bool
	predicted  bool // confident prediction existed at fetch
	correct    bool // ... and matched the actual value
	usefulSeen bool // a consumer was decoupled by it (counted once)
}

// refEntry is one instruction in the window.
type refEntry struct {
	seq       uint64
	fetchedAt uint64
	earliest  uint64 // fetch cycle + 2 (pipeline depth)
	availAt   uint64 // max availability over resolved operand constraints
	prod      *refProducer
	waitOn    []*refProducer // unpredicted in-flight producers
	mispredOn []*refProducer // consumed mispredictions, still in flight
	specOn    []*refProducer // correct predictions being speculated on
}

func (w *refEntry) ready(cycle uint64) bool {
	return len(w.waitOn) == 0 && len(w.mispredOn) == 0 &&
		w.earliest <= cycle && w.availAt <= cycle
}

// addDep classifies one operand dependence: an executed producer just
// bounds availAt; a correctly predicted in-flight producer is speculated
// past; a consumed misprediction waits for the real value; anything else
// is a plain wait.
func (w *refEntry) addDep(p *refProducer) {
	switch {
	case p == nil:
		return
	case p.done:
		w.availAt = max(w.availAt, p.execCycle+1)
	case p.predicted && p.correct:
		w.specOn = append(w.specOn, p)
	case p.predicted:
		w.mispredOn = append(w.mispredOn, p)
	default:
		w.waitOn = append(w.waitOn, p)
	}
}

// resolve folds newly executed producers into availAt.
func (w *refEntry) resolve(penalty uint64) {
	n := 0
	for _, p := range w.waitOn {
		if p.done {
			w.availAt = max(w.availAt, p.execCycle+1)
		} else {
			w.waitOn[n] = p
			n++
		}
	}
	w.waitOn = w.waitOn[:n]
	n = 0
	for _, p := range w.mispredOn {
		if p.done {
			w.availAt = max(w.availAt, p.execCycle+1+penalty)
		} else {
			w.mispredOn[n] = p
			n++
		}
	}
	w.mispredOn = w.mispredOn[:n]
}
