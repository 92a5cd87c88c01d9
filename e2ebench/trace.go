package main

// Spans recorded by the benchmark around its calls into each layer's
// public functions. The program itself carries no spans yet; everything
// here is measured from the outside, so stages without a public seam
// inside shred.Compiled.Run (the validator, the FD guard, the evaluator)
// are attributed by with/without runs and printed as estimates.

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"xkprop/internal/rel"
	"xkprop/internal/shred"
)

// span is one timed call: its name, start and end relative to the
// tracer's origin, the index of the span that caused it (-1 for none) and
// the document, schema or request it belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	ID     int64  `json:"id"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced runs stay free of tracing cost.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) start(name string, parent int, id int64) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, ID: id})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// record adds an already-measured span.
func (t *tracer) record(name string, parent int, id int64, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Parent: parent, ID: id})
	return len(t.spans) - 1
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTimes is the per-name total and self time of the spans.
type layerTimes struct {
	total, self map[string]time.Duration
	count       map[string]int
}

// mark returns the number of spans recorded so far, for timesSince.
func (t *tracer) mark() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// times is timesSince(0).
func (t *tracer) times() layerTimes { return t.timesSince(0) }

// timesSince sums, per name, the duration of every closed span recorded
// at or after mark, and its self time: the duration minus the part of its
// interval its children cover.
func (t *tracer) timesSince(mark int) layerTimes {
	lt := layerTimes{total: map[string]time.Duration{}, self: map[string]time.Duration{}, count: map[string]int{}}
	if t == nil {
		return lt
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans[mark:] {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i := mark; i < len(t.spans); i++ {
		s := t.spans[i]
		if s.End < 0 {
			continue
		}
		d := time.Duration(s.End - s.Start)
		lt.total[s.Name] += d
		lt.count[s.Name]++
		lt.self[s.Name] += d - covered(s, children[i])
	}
	return lt
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's interval.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var sum, curS, curE int64 = 0, -1, -1
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curE {
			if curE > curS {
				sum += curE - curS
			}
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	if curE > curS {
		sum += curE - curS
	}
	return time.Duration(sum)
}

// tracedReader times every Read of the input reader as an input.read span.
type tracedReader struct {
	r      io.Reader
	tr     *tracer
	parent int
	id     int64
}

func (t *tracedReader) Read(p []byte) (int, error) {
	s := t.tr.start("input.read", t.parent, t.id)
	n, err := t.r.Read(p)
	t.tr.end(s)
	return n, err
}

// tracedSink wraps a shred.Sink so that Open, every WriteBatch and Close
// are sink spans.
type tracedSink struct {
	s      shred.Sink
	tr     *tracer
	parent int
	id     int64
}

func (t tracedSink) Open(sc *rel.Schema) (shred.TableWriter, error) {
	s := t.tr.start("sink.open", t.parent, t.id)
	w, err := t.s.Open(sc)
	t.tr.end(s)
	if err != nil {
		return nil, err
	}
	return &tracedWriter{w: w, tracedSink: t}, nil
}

type tracedWriter struct {
	w shred.TableWriter
	tracedSink
}

func (t *tracedWriter) WriteBatch(rows []rel.Tuple) error {
	s := t.tr.start("sink.write", t.parent, t.id)
	err := t.w.WriteBatch(rows)
	t.tr.end(s)
	return err
}

func (t *tracedWriter) Close() error {
	s := t.tr.start("sink.close", t.parent, t.id)
	err := t.w.Close()
	t.tr.end(s)
	return err
}
