package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one host-time interval recorded at a layer boundary, in
// nanoseconds since the recorder's origin.
type span struct {
	name       string
	start, end int64
	parent     int32 // index of the enclosing span, -1 for a root
	stmt       int64 // statement id of a driver call, -1 otherwise
}

// recorder keeps the traced run's spans in memory. A nil *recorder is the
// untraced run: every method is a no-op, so the driver runs the same code
// with and without tracing.
//
// The span tree is: one "sim.step" root per engine step, a tick child per
// probed actor (named after its layer, e.g. "sched.tick"), and a "core.*"
// child per driver call. Actor ticks
// are timed by probe actors registered after each actor: a probe closes the
// interval since the previous probe (or since the step began). Spans are
// recorded only inside steps, which the benchmark opens only in the measure
// window.
type recorder struct {
	origin time.Time
	spans  []span
	step   int32   // open step span, -1 outside a step
	last   int64   // host clock at the step start or the previous probe
	calls  []int32 // open driver-call spans, innermost last
}

func newRecorder() *recorder { return &recorder{origin: time.Now(), step: -1} }

func (r *recorder) now() int64 { return int64(time.Since(r.origin)) }

// beginStep opens a step span.
func (r *recorder) beginStep() {
	if r == nil {
		return
	}
	t := r.now()
	r.step = int32(len(r.spans))
	r.spans = append(r.spans, span{name: "sim.step", start: t, end: -1, parent: -1, stmt: -1})
	r.last = t
}

// endStep closes the open step span.
func (r *recorder) endStep() {
	if r == nil || r.step < 0 {
		return
	}
	r.spans[r.step].end = r.now()
	r.step = -1
}

// tickDone is the probe body: it records [previous probe, now] as the tick of
// the actor registered just before the probe. Driver calls made during that
// interval (a shed callback reissuing from inside an actor) are re-parented
// under the tick, so the tick's self time excludes them.
func (r *recorder) tickDone(name string) {
	if r == nil || r.step < 0 {
		return
	}
	t := r.now()
	idx := int32(len(r.spans))
	for i := len(r.spans) - 1; i > int(r.step) && r.spans[i].start >= r.last; i-- {
		if r.spans[i].parent == r.step && r.spans[i].stmt >= 0 {
			r.spans[i].parent = idx
		}
	}
	r.spans = append(r.spans, span{name: name, start: r.last, end: t, parent: r.step, stmt: -1})
	r.last = t
}

// beginCall opens a driver-call span and returns its index (-1 when nothing
// is recorded).
func (r *recorder) beginCall(name string, stmt int64) int32 {
	if r == nil || r.step < 0 {
		return -1
	}
	parent := r.step
	if n := len(r.calls); n > 0 {
		parent = r.calls[n-1]
	}
	idx := int32(len(r.spans))
	r.spans = append(r.spans, span{name: name, start: r.now(), end: -1, parent: parent, stmt: stmt})
	r.calls = append(r.calls, idx)
	return idx
}

// endCall closes the span beginCall returned.
func (r *recorder) endCall(idx int32) {
	if r == nil || idx < 0 {
		return
	}
	r.spans[idx].end = r.now()
	r.calls = r.calls[:len(r.calls)-1]
}

// layerTime is the host time and span count attributed to one span name.
type layerTime struct {
	self  time.Duration
	spans int
}

// selfTimes sums, per span name, each span's duration minus the part of it
// that its children cover. Children may overlap one another; the covered
// part is the length of the union of their intervals, clipped to the parent.
func selfTimes(spans []span) map[string]layerTime {
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	out := map[string]layerTime{}
	var iv [][2]int64
	for i, s := range spans {
		iv = iv[:0]
		for _, c := range children[i] {
			lo, hi := max(spans[c].start, s.start), min(spans[c].end, s.end)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, reach := int64(0), s.start
		for _, v := range iv {
			if v[1] <= reach {
				continue
			}
			covered += v[1] - max(v[0], reach)
			reach = v[1]
		}
		lt := out[s.name]
		lt.self += time.Duration(s.end - s.start - covered)
		lt.spans++
		out[s.name] = lt
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format,
// the format trace.ExportChrome emits for the simulated flight recorder; the
// timestamps here are host microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans as a Chrome trace-event JSON array, loadable
// in Perfetto and chrome://tracing. Each event's args carry its span index,
// its parent's index and, for driver calls, the statement id.
func writeChrome(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if _, err := w.WriteString("[\n"); err != nil {
		return err
	}
	for i, s := range spans {
		args := map[string]any{"span": i, "parent": s.parent}
		if s.stmt >= 0 {
			args["stmt"] = s.stmt
		}
		if i > 0 {
			if _, err := w.WriteString(","); err != nil {
				return err
			}
		}
		ev := chromeEvent{Name: s.name, Ph: "X", Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3, Pid: 1, Tid: 1, Args: args}
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	if _, err := w.WriteString("]\n"); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
