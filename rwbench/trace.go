package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// span is one timed call from the benchmark into a layer's public
// function. The program itself is not traced: spans start and end at
// the benchmark's own call sites.
type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Op     int64  `json:"op"`
	Parent int    `json:"parent"` // index of the enclosing span in the recorder (in the written file, its line); -1 at the root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Redone is time inside the span that repeats work earlier spans of
	// the same operation already timed (core.Analyze redoing the public
	// passes the probe called one by one); self time leaves it out.
	Redone int64 `json:"redone_ns,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// opIDs numbers operations across all recorders of a run.
var opIDs atomic.Int64

// recorder keeps one goroutine's spans in memory. A nil recorder records
// nothing, so untraced windows pass nil and pay only a nil check.
type recorder struct {
	epoch time.Time
	op    int64
	spans []span
	open  []int
}

func newRecorder(epoch time.Time) *recorder { return &recorder{epoch: epoch} }

// beginOp starts a new operation: later spans carry its ID.
func (r *recorder) beginOp() {
	if r != nil {
		r.op = opIDs.Add(1)
	}
}

// start opens a span nested in the innermost open span and returns its
// index for end.
func (r *recorder) start(layer, name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{Name: name, Layer: layer, Op: r.op, Parent: parent, Start: int64(time.Since(r.epoch))})
	r.open = append(r.open, len(r.spans)-1)
	return len(r.spans) - 1
}

// end closes the span start returned; spans close innermost first.
func (r *recorder) end(i int) {
	if r == nil {
		return
	}
	r.spans[i].End = int64(time.Since(r.epoch))
	r.open = r.open[:len(r.open)-1]
}

// timed runs fn inside a span and returns the span's duration (fn's
// wall time when r is nil).
func (r *recorder) timed(layer, name string, fn func()) time.Duration {
	if r == nil {
		t := time.Now()
		fn()
		return time.Since(t)
	}
	s := r.start(layer, name)
	fn()
	r.end(s)
	return r.spans[s].dur()
}

// redoLast marks up to d of the span recorded last as repeating work
// that earlier spans of the operation already timed.
func (r *recorder) redoLast(d time.Duration) {
	if r == nil {
		return
	}
	s := &r.spans[len(r.spans)-1]
	s.Redone = int64(min(d, s.dur()))
}

// child records a closed span inside the innermost open span, for work
// whose extent the benchmark learns after the fact (the server-side time
// a reply reports).
func (r *recorder) child(layer, name string, start, end time.Time) {
	if r == nil {
		return
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{Name: name, Layer: layer, Op: r.op, Parent: parent,
		Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch))})
}

// trace is the merged span set of a run.
type trace struct {
	recs []*recorder
}

// perOp sums, for every operation, the value val gives each span under
// the key it gives, and returns the sums in milliseconds per key.
func (t *trace) perOp(val func(s span, self time.Duration) (string, time.Duration)) map[string][]float64 {
	sums := map[string]map[int64]time.Duration{}
	for _, r := range t.recs {
		self := selfTimes(r.spans)
		for i, s := range r.spans {
			k, d := val(s, self[i])
			if sums[k] == nil {
				sums[k] = map[int64]time.Duration{}
			}
			sums[k][s.Op] += d
		}
	}
	out := map[string][]float64{}
	for k, byOp := range sums {
		for _, d := range byOp {
			out[k] = append(out[k], ms(d))
		}
	}
	return out
}

// spanMedians returns, for each span name, the median over operations of
// the time spent in spans of that name.
func (t *trace) spanMedians() map[string]float64 {
	out := map[string]float64{}
	for k, v := range t.perOp(func(s span, _ time.Duration) (string, time.Duration) { return s.Name, s.dur() }) {
		out[k] = median(v)
	}
	return out
}

// selfMedians returns, for each layer, the median over operations of the
// layer's self time: its spans' durations minus what their child spans
// cover.
func (t *trace) selfMedians() map[string]float64 {
	out := map[string]float64{}
	for k, v := range t.perOp(func(s span, self time.Duration) (string, time.Duration) { return s.Layer, self }) {
		out[k] = median(v)
	}
	return out
}

// selfTimes computes each span's duration minus its children's and
// minus the work it redoes.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.dur() - time.Duration(s.Redone)
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// write stores every span as one JSON line. Parent indices are re-based
// from each recorder's own list to the line number in the file.
func (t *trace) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	base := 0
	for _, r := range t.recs {
		for _, s := range r.spans {
			if s.Parent >= 0 {
				s.Parent += base
			}
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
		base += len(r.spans)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
