package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer of the program.
// Times are seconds since the tracer's epoch.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 = no parent
	Run    string  `json:"run"`
	Layer  string  `json:"layer"`
	Name   string  `json:"name"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
}

// tracer keeps spans in memory until the run writes them out. A nil
// *tracer records nothing, so untraced code paths call it unconditionally.
type tracer struct {
	run   string
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(run string) *tracer { return &tracer{run: run, epoch: time.Now()} }

// now returns the seconds elapsed since the tracer's epoch.
func (t *tracer) now() float64 { return time.Since(t.epoch).Seconds() }

// start opens a span and returns its id (0 on a nil tracer).
func (t *tracer) start(parent int, layer, name string) int {
	if t == nil {
		return 0
	}
	at := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Layer: layer, Name: name, Start: at, End: -1})
	return id
}

// end closes the span and returns its duration in seconds.
func (t *tracer) end(id int) float64 {
	if t == nil || id == 0 {
		return 0
	}
	at := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = at
	return s.End - s.Start
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes attributes every instant of [from, to] to exactly one layer,
// so the returned times add up to to-from. An instant covered by spans is
// shared equally among the innermost open spans (those with no open
// child), which for sequential spans is the usual self time: a span's
// duration minus the part its children cover. An instant no span covers
// goes to "other".
func selfTimes(spans []span, from, to float64) map[string]float64 {
	type event struct {
		at   float64
		open bool
		s    *span
	}
	var evs []event
	for i := range spans {
		s := &spans[i]
		if s.End < s.Start {
			continue // never closed
		}
		evs = append(evs, event{clamp(s.Start, from, to), true, s}, event{clamp(s.End, from, to), false, s})
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].at < evs[j].at })

	out := map[string]float64{}
	open := map[int]*span{}
	openChildren := map[int]int{}
	prev := from
	attribute := func(until float64) {
		dt := until - prev
		if dt <= 0 {
			return
		}
		var leaves []*span
		for id, s := range open {
			if openChildren[id] == 0 {
				leaves = append(leaves, s)
			}
		}
		if len(leaves) == 0 {
			out["other"] += dt
			return
		}
		for _, s := range leaves {
			out[s.Layer] += dt / float64(len(leaves))
		}
	}
	for _, e := range evs {
		attribute(e.at)
		prev = e.at
		if e.open {
			open[e.s.ID] = e.s
			if e.s.Parent != 0 {
				openChildren[e.s.Parent]++
			}
		} else {
			delete(open, e.s.ID)
			if e.s.Parent != 0 {
				openChildren[e.s.Parent]--
			}
		}
	}
	attribute(to)
	return out
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
