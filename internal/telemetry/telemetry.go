// Package telemetry is the system-wide metrics layer: a dependency-free
// registry of counters, gauges, and fixed-bucket log2 histograms, with
// machine-readable exporters (Prometheus text and JSON).
//
// The design constraint is the paper's own: a tracing system must
// measure itself without distorting what it measures (§4). Handles are
// pre-registered once, and the hot-path operations — Counter.Add,
// Gauge.Set, Histogram.Observe — are single uncontended atomic updates
// on pre-allocated structs: no locks, no maps, no allocation, so the
// CPU interpreter loop and the kernel flush path can record events
// without slowing the tier-1 benchmarks.
//
// A Registry is safe for concurrent use: registration and snapshotting
// take an internal lock, and handle updates are atomic, so the
// experiment runner's parallel jobs can share one registry. Sample
// closures are the exception: they read whatever state the subsystem
// exposes (often plain uint64 statistics owned by a machine goroutine
// or the trace drain's consumer) without synchronization, so a
// snapshot taken while a simulation runs is a data race. Snapshot a
// registry with Sample series only once its runs have finished, as
// tracestat serve does.
//
// All handle methods are nil-receiver safe: a subsystem built without a
// registry attached records into nil handles at zero cost, so
// instrumentation can be wired unconditionally.
package telemetry

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind classifies a registered metric for the exporters.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// Label is one constant name/value pair attached to a metric at
// registration time (e.g. run="traced", pid="2").
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing uint64. The zero value is
// ready to use; Add on a nil *Counter is a no-op.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable float64 (for computed quantities like dilation
// factors). Set on a nil *Gauge is a no-op.
type Gauge struct {
	bits atomic.Uint64 // Float64bits of the value
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// NHistBuckets is the fixed bucket count of a Histogram: bucket i
// holds observations whose bit length is i, i.e. bucket 0 holds the
// value 0 and bucket i (i>0) holds values in [2^(i-1), 2^i - 1]. The
// exporters report cumulative counts with upper bounds 2^i - 1.
const NHistBuckets = 65

// Histogram counts observations in fixed log2 buckets. The zero value
// is ready to use; Observe on a nil *Histogram is a no-op. Concurrent
// observers update disjoint atomics, so a snapshot racing an Observe
// may see the bucket before the count — cumulative totals are still
// monotone, which is all the exporters promise mid-run.
type Histogram struct {
	buckets [NHistBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.buckets[bits.Len64(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// metric is one registered series.
type metric struct {
	name   string // metric family name
	id     string // name plus rendered label set (registry key)
	help   string
	kind   Kind
	labels []Label // sorted by key

	c   *Counter
	g   *Gauge
	h   *Histogram
	fn  func() uint64  // sampled counter (read at snapshot time)
	gfn func() float64 // sampled gauge (read at snapshot time)
}

// Registry holds registered metrics. The zero value is not usable; use
// New. All methods on a nil *Registry are no-ops returning nil handles,
// so instrumentation can be attached unconditionally. Registration and
// snapshotting are safe to call concurrently; see the package comment
// for the Sample-closure caveat.
type Registry struct {
	mu    sync.RWMutex
	byID  map[string]*metric
	order []*metric
}

// New returns an empty registry.
func New() *Registry { return &Registry{byID: map[string]*metric{}} }

// validName matches the Prometheus metric/label name charset.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// metricID renders the registry key: name{k1="v1",k2="v2"} with labels
// sorted by key.
func metricID(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// register adds (or finds) a series. Registration is idempotent for an
// identical (name, labels, kind) triple; re-registering under a
// different kind panics, as that is a programming error. The caller
// must hold r.mu.
func (r *Registry) register(name, help string, kind Kind, labels []Label) *metric {
	if !validName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	for _, l := range ls {
		if !validName(l.Key) {
			panic(fmt.Sprintf("telemetry: invalid label name %q on %s", l.Key, name))
		}
	}
	id := metricID(name, ls)
	if m, ok := r.byID[id]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("telemetry: %s re-registered as %v (was %v)", id, kind, m.kind))
		}
		return m
	}
	m := &metric{name: name, id: id, help: help, kind: kind, labels: ls}
	r.byID[id] = m
	r.order = append(r.order, m)
	return m
}

// Counter registers (or finds) a counter series and returns its handle.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.register(name, help, KindCounter, labels)
	if m.c == nil && m.fn == nil {
		m.c = &Counter{}
	}
	return m.c
}

// Gauge registers (or finds) a gauge series and returns its handle.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.register(name, help, KindGauge, labels)
	if m.g == nil && m.gfn == nil {
		m.g = &Gauge{}
	}
	return m.g
}

// Histogram registers (or finds) a log2-bucket histogram series.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.register(name, help, KindHistogram, labels)
	if m.h == nil {
		m.h = &Histogram{}
	}
	return m.h
}

// Sample registers a counter series whose value is read by calling fn
// at snapshot time. This instruments subsystems that already maintain
// their own uint64 statistics (cpu.Stats, device counters, parser
// counters) without adding any work to their hot paths.
func (r *Registry) Sample(name, help string, fn func() uint64, labels ...Label) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.register(name, help, KindCounter, labels)
	m.fn = fn
	m.c = nil
}

// SampleGauge registers a gauge series whose value is read by calling
// fn at snapshot time — the level-typed counterpart of Sample, for
// quantities that can move both ways (depths, ratios, watermarks).
func (r *Registry) SampleGauge(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.register(name, help, KindGauge, labels)
	m.gfn = fn
	m.g = nil
}

// BucketCount is one cumulative histogram bucket: Count observations
// were <= Le.
type BucketCount struct {
	Le    uint64 `json:"le"`
	Count uint64 `json:"count"`
}

// Metric is one exported series value.
type Metric struct {
	Name    string            `json:"name"`
	Labels  map[string]string `json:"labels,omitempty"`
	Kind    string            `json:"kind"`
	Help    string            `json:"help,omitempty"`
	Value   float64           `json:"value"`
	Count   uint64            `json:"count,omitempty"`
	Sum     uint64            `json:"sum,omitempty"`
	Buckets []BucketCount     `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time export of every registered series,
// sorted by metric name then label set.
type Snapshot struct {
	Metrics []Metric `json:"metrics"`
}

// Snapshot samples every series.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.RLock()
	ms := append([]*metric(nil), r.order...)
	r.mu.RUnlock()
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].name != ms[j].name {
			return ms[i].name < ms[j].name
		}
		return ms[i].id < ms[j].id
	})
	out := Snapshot{Metrics: make([]Metric, 0, len(ms))}
	for _, m := range ms {
		e := Metric{Name: m.name, Kind: m.kind.String(), Help: m.help}
		if len(m.labels) > 0 {
			e.Labels = make(map[string]string, len(m.labels))
			for _, l := range m.labels {
				e.Labels[l.Key] = l.Value
			}
		}
		switch m.kind {
		case KindCounter:
			if m.fn != nil {
				e.Value = float64(m.fn())
			} else {
				e.Value = float64(m.c.Value())
			}
		case KindGauge:
			if m.gfn != nil {
				e.Value = m.gfn()
			} else {
				e.Value = m.g.Value()
			}
		case KindHistogram:
			e.Count = m.h.Count()
			e.Sum = m.h.Sum()
			e.Value = float64(m.h.Sum())
			// Cumulative counts; empty buckets are elided.
			var cum uint64
			for i := range m.h.buckets {
				c := m.h.buckets[i].Load()
				if c == 0 {
					continue
				}
				cum += c
				le := uint64(1)<<uint(i) - 1 // bucket i upper bound
				e.Buckets = append(e.Buckets, BucketCount{Le: le, Count: cum})
			}
		}
		out.Metrics = append(out.Metrics, e)
	}
	return out
}

// Get finds a series in the snapshot by name and exact label set.
func (s Snapshot) Get(name string, labels ...Label) (Metric, bool) {
	for _, m := range s.Metrics {
		if m.Name != name || len(m.Labels) != len(labels) {
			continue
		}
		match := true
		for _, l := range labels {
			if m.Labels[l.Key] != l.Value {
				match = false
				break
			}
		}
		if match {
			return m, true
		}
	}
	return Metric{}, false
}
