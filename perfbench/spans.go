package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// Lanes are the goroutines spans are recorded on. A span's self time
// subtracts only children on its own lane: stream-consumer work runs
// beside the producer, not inside it.
const (
	laneMain     = 0
	laneConsumer = 1
)

// span is one timed layer call made by the benchmark.
type span struct {
	Name   string  `json:"name"`
	Lane   int     `json:"lane"`
	Parent int     `json:"parent"` // index into the tracer's spans, -1 for a root
	Op     string  `json:"op"`     // spans of one op call share it
	Pass   int     `json:"pass"`
	Start  float64 `json:"start_s"` // seconds since the tracer started
	End    float64 `json:"end_s"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer records spans in memory; begin and end may be called from the
// main goroutine and the stream consumer at once.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	open  [2][]int // stack of open span indices per lane
	op    string
	pass  int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// setOp labels the spans begun from now on.
func (t *tracer) setOp(op string, pass int) {
	t.mu.Lock()
	t.op, t.pass = op, pass
	t.mu.Unlock()
}

// begin opens a span on lane. Its parent is the innermost open span of
// the lane, or for a consumer span with none open, the innermost open
// span of the main lane (the run that produced its input).
func (t *tracer) begin(lane int, name string) int {
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if st := t.open[lane]; len(st) > 0 {
		parent = st[len(st)-1]
	} else if st := t.open[laneMain]; lane != laneMain && len(st) > 0 {
		parent = st[len(st)-1]
	}
	t.spans = append(t.spans, span{Name: name, Lane: lane, Parent: parent,
		Op: t.op, Pass: t.pass, Start: now, End: -1})
	id := len(t.spans) - 1
	t.open[lane] = append(t.open[lane], id)
	return id
}

// end closes span id and any spans opened inside it on its lane.
func (t *tracer) end(id int) {
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	lane := t.spans[id].Lane
	st := t.open[lane]
	for len(st) > 0 {
		top := st[len(st)-1]
		st = st[:len(st)-1]
		t.spans[top].End = now
		if top == id {
			break
		}
	}
	t.open[lane] = st
}

// openOn reports the innermost open span named name on lane, or -1.
func (t *tracer) openOn(lane int, name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.open[lane]
	if len(st) > 0 && t.spans[st[len(st)-1]].Name == name {
		return st[len(st)-1]
	}
	return -1
}

// layerTimes sums, per span name, the durations and the self times
// (duration minus same-lane children) of the spans recorded since
// index from.
func (t *tracer) layerTimes(from int) (dur, self map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	dur, self = map[string]float64{}, map[string]float64{}
	for _, s := range t.spans[from:] {
		dur[s.Name] += s.dur()
		self[s.Name] += s.dur()
	}
	for _, s := range t.spans[from:] {
		if s.Parent >= from && t.spans[s.Parent].Lane == s.Lane {
			self[t.spans[s.Parent].Name] -= s.dur()
		}
	}
	return dur, self
}

func (t *tracer) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write dumps every span as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
