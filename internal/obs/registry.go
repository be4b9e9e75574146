// Package obs is the observability layer of the system: a low-overhead
// atomic metrics registry with Prometheus-style text exposition, a
// structured event tracer producing the Chrome trace-event JSON of a CLI's
// -trace file (loadable in chrome://tracing or https://ui.perfetto.dev),
// and an opt-in HTTP diagnostics server exposing /metrics and /debug/pprof.
// A server's trace is not here: each session's flight ring
// (internal/matchprof) is rendered on demand at /debug/match/flight.
//
// Every type is nil-safe: methods on a nil *Counter, *Gauge, *Histogram,
// *Tracer, *Registry or *Observer are no-ops, so instrumented code paths
// need at most a single nil check and pay nothing when observability is
// disabled.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically settable float value.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// value returns the current value (0 on nil).
func (g *Gauge) value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into buckets with fixed upper bounds
// (Prometheus "le" semantics: bucket i counts observations <= bounds[i];
// the final implicit bucket is +Inf).
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits
}

// Observe records one value.
func (h *Histogram) Observe(v float64) { h.ObserveEach(1, func(int) float64 { return v }) }

// ObserveEach records the n values value(0) … value(n-1), touching the
// shared count and sum once for the lot: the once-per-cycle form the match
// runtime folds its task costs through.
func (h *Histogram) ObserveEach(n int, value func(i int) float64) {
	if h == nil || n <= 0 {
		return
	}
	var sum float64
	for i := 0; i < n; i++ {
		v := value(i)
		h.counts[sort.SearchFloat64s(h.bounds, v)].Add(1)
		sum += v
	}
	h.count.Add(uint64(n))
	for {
		old := h.sum.Load()
		cur := math.Float64frombits(old)
		if h.sum.CompareAndSwap(old, math.Float64bits(cur+sum)) {
			return
		}
	}
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// defBuckets is the default bucket layout for second-valued histograms.
var defBuckets = []float64{1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, .01, .025, .05, .1, .25, .5, 1, 2.5}

// ExpBuckets returns n bucket bounds starting at start, each factor times
// the previous.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// Registry is a concurrency-safe named-metric registry. Metrics are
// created on first use and live for the registry's lifetime; the fast path
// (updating an already-resolved metric) is a single atomic operation.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	// collectors run at the start of every WriteText (see OnCollect), keyed
	// by registration order so each can be removed.
	collectors    map[int]func()
	nextCollector int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},

		collectors: map[int]func(){},
	}
}

// OnCollect registers fn to run at the start of every WriteText — for
// totals that are cheaper to fold into their counters when somebody looks
// than on every update. fn folds into metrics it resolved beforehand; it
// runs on the scraping goroutine, outside the registry lock, so it must
// synchronize with whatever it reads. The returned function unregisters
// fn: the owner of what fn reads calls it on release, or the registry
// keeps that reachable.
func (r *Registry) OnCollect(fn func()) (remove func()) {
	if r == nil {
		return func() {}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := r.nextCollector
	r.nextCollector++
	r.collectors[id] = fn
	return func() {
		r.mu.Lock()
		delete(r.collectors, id)
		r.mu.Unlock()
	}
}

// counter returns (creating if needed) the named counter; nil on a nil
// registry.
func (r *Registry) counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// gauge returns (creating if needed) the named gauge; nil on a nil
// registry.
func (r *Registry) gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// histogram returns (creating if needed) the named histogram. The bounds
// are used only on first creation; defBuckets when none are given. Nil on
// a nil registry.
func (r *Registry) histogram(name string, bounds ...float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		if len(bounds) == 0 {
			bounds = defBuckets
		}
		bb := append([]float64(nil), bounds...)
		sort.Float64s(bb)
		h = &Histogram{bounds: bb, counts: make([]atomic.Uint64, len(bb)+1)}
		r.hists[name] = h
	}
	return h
}

// WriteText writes the registry in the Prometheus text exposition format,
// metrics sorted by name. Metric pointers are captured while holding the
// registry lock (metrics may be lazily created mid-scrape by concurrent
// code paths); values are then read outside the lock via their atomics.
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	type counter struct {
		name string
		c    *Counter
	}
	type gauge struct {
		name string
		g    *Gauge
	}
	type hist struct {
		name string
		h    *Histogram
	}
	r.mu.Lock()
	collectors := make([]func(), 0, len(r.collectors))
	for _, fn := range r.collectors {
		collectors = append(collectors, fn)
	}
	counters := make([]counter, 0, len(r.counters))
	for name, c := range r.counters {
		counters = append(counters, counter{name, c})
	}
	gauges := make([]gauge, 0, len(r.gauges))
	for name, g := range r.gauges {
		gauges = append(gauges, gauge{name, g})
	}
	hists := make([]hist, 0, len(r.hists))
	for name, h := range r.hists {
		hists = append(hists, hist{name, h})
	}
	r.mu.Unlock()
	// Collectors fold into metrics they resolved beforehand, so running
	// them between capturing the pointers and reading the values puts their
	// contribution into this exposition.
	for _, fn := range collectors {
		fn()
	}

	sort.Slice(counters, func(i, j int) bool { return counters[i].name < counters[j].name })
	sort.Slice(gauges, func(i, j int) bool { return gauges[i].name < gauges[j].name })
	sort.Slice(hists, func(i, j int) bool { return hists[i].name < hists[j].name })

	for _, cc := range counters {
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", cc.name, cc.name, cc.c.Value()); err != nil {
			return err
		}
	}
	for _, gg := range gauges {
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", gg.name, gg.name, formatFloat(gg.g.value())); err != nil {
			return err
		}
	}
	for _, hh := range hists {
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", hh.name); err != nil {
			return err
		}
		// Snapshot every bucket up front and derive _count from the
		// snapshot, so _count always equals the +Inf cumulative bucket even
		// while Observe runs concurrently (a Prometheus invariant). _sum is
		// read separately and may lag the buckets by in-flight observations.
		counts := make([]uint64, len(hh.h.counts))
		for i := range hh.h.counts {
			counts[i] = hh.h.counts[i].Load()
		}
		sum := hh.h.Sum()
		cum := uint64(0)
		for i, b := range hh.h.bounds {
			cum += counts[i]
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", hh.name, formatFloat(b), cum); err != nil {
				return err
			}
		}
		cum += counts[len(hh.h.bounds)]
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %s\n%s_count %d\n",
			hh.name, cum, hh.name, formatFloat(sum), hh.name, cum); err != nil {
			return err
		}
	}
	return nil
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
