// Package telemetry is the measurement substrate of the management
// plane: a stdlib-only, lock-cheap metrics registry (atomic counters,
// gauges, fixed-bucket latency histograms with quantile snapshots) plus
// lightweight per-call tracing (spans with a bounded ring of recent slow
// calls). It exists because the paper's non-intrusive claim needs the
// management side itself to be observable without touching guests: the
// daemon, RPC layer and drivers all report here, and the admin API, the
// optional Prometheus endpoint and the bench harness all read from here.
//
// Hot-path cost model: a registered Counter/Gauge/Histogram handle is a
// pointer; updating it is one or two atomic operations and never takes a
// lock. Registry lookups (get-or-create by name) take a read lock and
// are meant for set-up paths, with callers caching the handle.
package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing value.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set installs an absolute value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add shifts the value by delta (may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// numBuckets is the count of finite histogram buckets.
const numBuckets = 22

// bucketBoundsNs are the fixed histogram bucket upper bounds in
// nanoseconds, log-spaced 1-2-5 from 1µs to 10s. Durations above the
// last bound land in the implicit +Inf bucket.
var bucketBoundsNs = [numBuckets]uint64{
	1_000, 2_000, 5_000,
	10_000, 20_000, 50_000,
	100_000, 200_000, 500_000,
	1_000_000, 2_000_000, 5_000_000,
	10_000_000, 20_000_000, 50_000_000,
	100_000_000, 200_000_000, 500_000_000,
	1_000_000_000, 2_000_000_000, 5_000_000_000,
	10_000_000_000,
}

// Histogram accumulates durations into fixed log-spaced buckets. All
// updates are atomic; Observe never allocates or locks.
type Histogram struct {
	buckets [numBuckets + 1]atomic.Uint64 // +1 for +Inf
	count   atomic.Uint64
	sumNs   atomic.Uint64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	ns := uint64(0)
	if d > 0 {
		ns = uint64(d)
	}
	h.buckets[bucketIndex(ns)].Add(1)
	h.count.Add(1)
	h.sumNs.Add(ns)
}

// bucketIndex finds the first bucket whose bound is >= ns via binary
// search over the fixed bounds.
func bucketIndex(ns uint64) int {
	lo, hi := 0, len(bucketBoundsNs)
	for lo < hi {
		mid := (lo + hi) / 2
		if bucketBoundsNs[mid] >= ns {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo // == len(bucketBoundsNs) means +Inf
}

// HistogramSnapshot is a point-in-time view of a histogram with
// estimated quantiles.
type HistogramSnapshot struct {
	Name    string
	Count   uint64
	SumNs   uint64
	P50Ns   uint64
	P95Ns   uint64
	P99Ns   uint64
	Buckets []BucketCount
}

// BucketCount is one cumulative histogram bucket.
type BucketCount struct {
	UpperNs    uint64 // 0 means +Inf
	Cumulative uint64
}

// MeanNs returns the arithmetic mean in nanoseconds.
func (s HistogramSnapshot) MeanNs() uint64 {
	if s.Count == 0 {
		return 0
	}
	return s.SumNs / s.Count
}

// Snapshot captures the histogram's buckets and computes quantiles.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var counts [len(bucketBoundsNs) + 1]uint64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
	}
	snap := HistogramSnapshot{
		Count: h.count.Load(),
		SumNs: h.sumNs.Load(),
	}
	var total uint64
	snap.Buckets = make([]BucketCount, 0, len(counts))
	for i, c := range counts {
		total += c
		upper := uint64(0)
		if i < len(bucketBoundsNs) {
			upper = bucketBoundsNs[i]
		}
		snap.Buckets = append(snap.Buckets, BucketCount{UpperNs: upper, Cumulative: total})
	}
	snap.P50Ns = quantile(counts[:], total, 0.50)
	snap.P95Ns = quantile(counts[:], total, 0.95)
	snap.P99Ns = quantile(counts[:], total, 0.99)
	return snap
}

// quantile estimates the q-quantile by linear interpolation inside the
// bucket containing the target rank. The +Inf bucket reports the last
// finite bound.
func quantile(counts []uint64, total uint64, q float64) uint64 {
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen uint64
	for i, c := range counts {
		if seen+c <= rank {
			seen += c
			continue
		}
		if i >= len(bucketBoundsNs) {
			return bucketBoundsNs[len(bucketBoundsNs)-1]
		}
		lower := uint64(0)
		if i > 0 {
			lower = bucketBoundsNs[i-1]
		}
		upper := bucketBoundsNs[i]
		// Position of the target rank inside this bucket.
		frac := float64(rank-seen+1) / float64(c)
		return lower + uint64(frac*float64(upper-lower))
	}
	return bucketBoundsNs[len(bucketBoundsNs)-1]
}

// CounterSnapshot and GaugeSnapshot are point-in-time metric views.
type CounterSnapshot struct {
	Name  string
	Value uint64
}

// GaugeSnapshot is a point-in-time gauge view.
type GaugeSnapshot struct {
	Name  string
	Value int64
}

// Snapshot is a consistent-enough view of a whole registry: every metric
// is read atomically, function metrics are sampled at snapshot time.
type Snapshot struct {
	Counters   []CounterSnapshot
	Gauges     []GaugeSnapshot
	Histograms []HistogramSnapshot
}

// Registry holds named metrics. Names follow the Prometheus convention
// and may carry a label clause: `daemon_clients{server="govirtd"}`.
// Get-or-create methods are safe for concurrent use; the returned handle
// should be cached by hot paths.
type Registry struct {
	mu           sync.RWMutex
	counters     map[string]*Counter
	gauges       map[string]*Gauge
	histograms   map[string]*Histogram
	counterFuncs map[string]func() uint64
	gaugeFuncs   map[string]func() int64
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:     make(map[string]*Counter),
		gauges:       make(map[string]*Gauge),
		histograms:   make(map[string]*Histogram),
		counterFuncs: make(map[string]func() uint64),
		gaugeFuncs:   make(map[string]func() int64),
	}
}

// Default is the process-wide registry. Components that have no natural
// owner to thread a registry through (the RPC substrate, drivers) report
// here; the daemon uses it unless built with an explicit registry.
var Default = NewRegistry()

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h, ok := r.histograms[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.histograms[name]; ok {
		return h
	}
	h = &Histogram{}
	r.histograms[name] = h
	return h
}

// CounterFunc registers a counter sampled by calling fn at snapshot
// time. Re-registering a name replaces the function: when a component is
// rebuilt (tests, daemon restarts in-process) the newest source wins.
func (r *Registry) CounterFunc(name string, fn func() uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counterFuncs[name] = fn
}

// GaugeFunc registers a gauge sampled by calling fn at snapshot time.
// Re-registering a name replaces the function.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFuncs[name] = fn
}

// Snapshot samples every metric. Output is sorted by name so renderings
// are stable.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.histograms))
	for k, v := range r.histograms {
		hists[k] = v
	}
	counterFuncs := make(map[string]func() uint64, len(r.counterFuncs))
	for k, v := range r.counterFuncs {
		counterFuncs[k] = v
	}
	gaugeFuncs := make(map[string]func() int64, len(r.gaugeFuncs))
	for k, v := range r.gaugeFuncs {
		gaugeFuncs[k] = v
	}
	r.mu.RUnlock()

	var snap Snapshot
	for name, c := range counters {
		snap.Counters = append(snap.Counters, CounterSnapshot{Name: name, Value: c.Value()})
	}
	for name, fn := range counterFuncs {
		snap.Counters = append(snap.Counters, CounterSnapshot{Name: name, Value: fn()})
	}
	for name, g := range gauges {
		snap.Gauges = append(snap.Gauges, GaugeSnapshot{Name: name, Value: g.Value()})
	}
	for name, fn := range gaugeFuncs {
		snap.Gauges = append(snap.Gauges, GaugeSnapshot{Name: name, Value: fn()})
	}
	for name, h := range hists {
		hs := h.Snapshot()
		hs.Name = name
		snap.Histograms = append(snap.Histograms, hs)
	}
	sort.Slice(snap.Counters, func(i, j int) bool { return snap.Counters[i].Name < snap.Counters[j].Name })
	sort.Slice(snap.Gauges, func(i, j int) bool { return snap.Gauges[i].Name < snap.Gauges[j].Name })
	sort.Slice(snap.Histograms, func(i, j int) bool { return snap.Histograms[i].Name < snap.Histograms[j].Name })
	return snap
}
